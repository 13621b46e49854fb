"""Small dense complex linear algebra and quantum-state primitives.

Everything here works on plain complex numpy arrays. The state
primitives take one d x d matrix, giving a float (or scalar
StateReport), or a (..., d, d) stack, giving one result per matrix.
All functions are pure: inputs are never mutated and results are
freshly allocated, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIGMA",
    "PSD_EIG_TOL",
    "CHOLESKY_PIVOT_TOL",
    "Trajectory",
    "StateReport",
    "IntegrationResult",
    "dag",
    "partial_trace",
    "validate_state",
    "cholesky_psd",
    "trace_power",
    "spectrum",
    "finite_diff",
    "diff_series",
    "hermiticity_defect",
    "rk4_integrate",
]

# Pauli matrices sigma_0..sigma_3 (sigma_0 = identity).
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# An eigenvalue >= -PSD_EIG_TOL counts as non-negative; double-precision
# noise floor for 4x4 problems.
PSD_EIG_TOL = 1e-10
CHOLESKY_PIVOT_TOL = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(a.conj(), -1, -2)


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _per_matrix(x):
    """A 0-d result (one matrix in) as a float; a stack's stays an array."""
    return float(x) if np.ndim(x) == 0 else x


def hermiticity_defect(a: np.ndarray):
    """max |a - a^dag| of a matrix, or of each matrix of a stack."""
    return _per_matrix(np.abs(a - dag(a)).max(axis=(-2, -1)))


def _require_hermitian(a: np.ndarray, caller: str, rtol: float = 1e-8):
    """Reject ``a`` unless every matrix is Hermitian relative to its scale."""
    if np.any(hermiticity_defect(a) > rtol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))):
        raise ValueError(f"{caller} expects a Hermitian matrix")


@dataclass(frozen=True)
class StateReport:
    """Validation report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def ok(self):
        """A bool for one matrix, a boolean array for a stack."""
        return (
            (self.hermiticity_defect <= self.tol)
            & (self.trace_defect <= self.tol)
            & (self.min_eigenvalue >= -self.tol)
        )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled matrix-valued time series.

    ``samples`` has shape (n, d, d); sample ``i`` is the matrix at time
    ``t0 + i * dt``. At least 3 samples are required so that the
    second-order difference stencils have interior points.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise ValueError(f"samples must have shape (n, d, d), got {s.shape}")
        if s.shape[0] < 3:
            raise ValueError("need at least 3 samples")
        if not (np.isfinite(self.t0) and 0 < self.dt < np.inf):
            raise ValueError("t0 must be finite and dt positive and finite")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace a 4x4 operator, or each of a (..., 4, 4) stack, over one factor.

    ``subsystem`` names the factor that is traced OUT: ``"B"`` (second
    factor) leaves the first qubit's reduced matrix, ``"A"`` the second's.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("partial_trace expects a 4x4 matrix or a stack of them")
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho has non-finite entries")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "B":
        return np.einsum("...ikjk->...ij", r)
    if subsystem == "A":
        return np.einsum("...kikj->...ij", r)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def validate_state(rho: np.ndarray, tol: float = 1e-9) -> StateReport:
    """Report how far ``rho`` (or each matrix of a stack) is from being a
    density matrix."""
    rho = _as_square(rho, "rho")
    herm = hermiticity_defect(rho)
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    w = np.linalg.eigvalsh(0.5 * (rho + dag(rho)))
    return StateReport(herm, _per_matrix(trace), _per_matrix(w[..., 0]), tol)


def cholesky_psd(rho: np.ndarray):
    """Cholesky factor of a Hermitian PSD matrix, or None if not PSD.

    Returns a lower-triangular L with rho = L L^dag and non-negative real
    diagonal. A pivot below -CHOLESKY_PIVOT_TOL (relative to the matrix
    scale), or a non-trivial column under a vanishing pivot, certifies a
    negative direction and yields None.
    """
    rho = _as_square(rho, "rho")
    if rho.ndim != 2:
        raise ValueError(f"cholesky_psd factors one matrix, got shape {rho.shape}")
    _require_hermitian(rho, "cholesky_psd")
    n = rho.shape[0]
    scale = max(1.0, float(np.abs(rho).max()))
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = float((rho[j, j] - np.vdot(L[j, :j], L[j, :j])).real)
        if d < -CHOLESKY_PIVOT_TOL * scale:
            return None
        if d <= CHOLESKY_PIVOT_TOL * scale:
            # Zero pivot: the rest of the column must vanish too.
            col = rho[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()
            if col.size and np.max(np.abs(col)) > 1e-5 * scale:
                return None
            continue
        L[j, j] = np.sqrt(d)
        L[j + 1 :, j] = (rho[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
    return L


def _trace_powers(rho: np.ndarray, ks) -> dict:
    """{k: real Tr(rho^k)} for each k in ``ks``, from one running product."""
    acc, out = rho, {}
    for k in range(1, max(ks, default=0) + 1):
        if k > 1:
            acc = acc @ rho
        if k in ks:
            t = np.trace(acc, axis1=-2, axis2=-1)
            if np.any(np.abs(t.imag) > 1e-9 * np.maximum(1.0, np.abs(t.real))):
                raise ValueError(f"trace power has large imaginary part {np.max(np.abs(t.imag)):g}")
            out[k] = t.real
    return out


def trace_power(rho: np.ndarray, k: int):
    """Tr(rho^k) for k in 1..4 (real part; Hermitian input assumed)."""
    rho = _as_square(rho, "rho")
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")
    return _per_matrix(_trace_powers(rho, (k,))[k])


def spectrum(h: np.ndarray, vectors: bool = False):
    """Eigenvalues of a Hermitian matrix (or of each of a stack), ascending.

    With ``vectors=True`` also returns the orthonormal eigenvectors as
    matrix columns, in a deterministic gauge: the first component of each
    vector with magnitude above 1e-8 is made real and positive.
    """
    h = _as_square(h, "h")
    _require_hermitian(h, "spectrum")
    if not vectors:
        return np.linalg.eigvalsh(h)
    w, v = np.linalg.eigh(h)
    lead = np.argmax(np.abs(v) > 1e-8, axis=-2)[..., np.newaxis, :]
    ph = np.take_along_axis(v, lead, axis=-2)
    # hypot, not np.abs: it rounds |ph| as the scalar abs() does
    return w, v * (ph.conj() / np.hypot(ph.real, ph.imag))


def finite_diff(traj: Trajectory) -> Trajectory:
    """Second-order time derivative of a trajectory (see diff_series)."""
    return Trajectory(traj.t0, traj.dt, diff_series(traj.samples, traj.dt))


def diff_series(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of an (n, ...) array of samples.

    Central differences at interior points, one-sided second-order
    stencils at both ends; error O(dt^2) throughout.
    """
    values = np.asarray(values)
    if values.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    d = np.empty_like(values, dtype=float if values.dtype.kind == "f" else values.dtype)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return d


@dataclass(frozen=True)
class IntegrationResult:
    """RK4 output: ``samples`` is (n_steps + 1, d, d) for one state, or
    (n_steps + 1, c, d, d) for a stack of c; the drifts are per sample,
    and per state of a stack."""

    t0: float
    dt: float
    samples: np.ndarray = field(repr=False)
    trace_drift: np.ndarray = field(repr=False)
    hermiticity_drift: np.ndarray = field(repr=False)

    @property
    def trajectory(self) -> Trajectory:
        """The samples of one integrated state as a Trajectory."""
        if self.samples.ndim != 3:
            raise ValueError("a stack of states has no single trajectory; use samples")
        return Trajectory(self.t0, self.dt, self.samples)

    @property
    def max_trace_drift(self):
        return _per_matrix(np.max(self.trace_drift, axis=0))

    @property
    def max_hermiticity_drift(self):
        return _per_matrix(np.max(self.hermiticity_drift, axis=0))


def _rk4_steps(generator, rho, t0: float, dt: float, n_steps: int):
    """Yield the n_steps classic RK4 states after ``rho`` (not ``rho``
    itself), one step at a time; a step with a non-finite entry raises
    RuntimeError naming its time."""
    half = 0.5 * dt
    for i in range(n_steps):
        t = t0 + i * dt
        k1 = generator(t, rho)
        k2 = generator(t + half, rho + half * k1)
        k3 = generator(t + half, rho + half * k2)
        k4 = generator(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(rho).all():
            raise RuntimeError(f"integration produced non-finite values at t={t + dt:g}")
        yield rho


def rk4_integrate(generator, rho0, t0: float, dt: float, n_steps: int) -> IntegrationResult:
    """Classic fixed-step RK4 for d(rho)/dt = generator(t, rho).

    ``rho0`` is one (d, d) matrix or a (c, d, d) stack of c states
    integrated together: ``generator`` gets and returns the whole stack,
    once per RK4 stage. Returns the n_steps + 1 samples with the trace
    and Hermiticity drift of every state relative to its initial one; a
    step with a non-finite entry in any state raises.
    """
    rho = _as_square(rho0, "rho0")
    if rho.ndim > 3:
        raise ValueError(f"rho0 must be one matrix or a (c, d, d) stack, got shape {rho.shape}")
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    out = np.empty((n_steps + 1,) + rho.shape, dtype=complex)
    out[0] = rho
    for i, state in enumerate(_rk4_steps(generator, rho, t0, dt, n_steps), 1):
        out[i] = state
    trace = np.trace(out, axis1=-2, axis2=-1)
    return IntegrationResult(
        t0, dt, out, np.abs(trace - trace[0]), hermiticity_defect(out)
    )
