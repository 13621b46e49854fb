"""Small dense complex linear algebra and quantum-state primitives.

Everything here works on plain complex numpy arrays. The state
primitives take one d x d matrix, giving a float (or scalar
StateReport), or a (..., d, d) stack, giving one result per matrix.
All functions are pure: inputs are never mutated and results are
freshly allocated, so values can be shared freely across threads. A
pass over a whole stack runs on slices of _CHUNK samples of its first
axis, so its temporaries stay O(_CHUNK) whatever the stack's length.
A product or sum over the whole series runs in numpy's own loops
(ufuncs, their reductions, einsum without optimize), and BLAS (@, dot)
sees only per-sample or at most 16-wide matrices: OpenBLAS splits a
series-long call between its threads, so its result then depends on
the thread count and its woken workers spin on after the call.
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
# samples per slice of every pass over a whole (n, d, d) stack: it bounds
# the pass's temporaries (256 kB per complex 4x4 temporary), not n
_CHUNK = 1024


def _chunks(n: int) -> list:
    """Slices of at most _CHUNK samples that cover range(n) in order."""
    return [slice(k, min(k + _CHUNK, n)) for k in range(0, n, _CHUNK)]


def _joined(f, a: np.ndarray):
    """f(a) of a per-matrix function with small results, computed on the
    _CHUNK slices of a stack's first axis and joined; f(a) of one matrix."""
    if a.ndim < 3 or len(a) <= _CHUNK:
        return f(a)
    parts = [f(a[part]) for part in _chunks(len(a))]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _first_bad(bad) -> str:
    """'' for one matrix; ' at sample i' (flat index) for a stack's first bad one."""
    return f" at sample {np.flatnonzero(bad)[0]}" if np.ndim(bad) else ""


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(a.conj(), -1, -2)


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    finite = _joined(lambda x: np.isfinite(x).all(axis=(-2, -1)), a)
    if not finite.all():
        raise ValueError(f"{name} has non-finite entries{_first_bad(~finite)}")
    return a


def _per_matrix(x):
    """A 0-d result (one matrix in) as a float; a stack's stays an array."""
    return float(x) if np.ndim(x) == 0 else x


def hermiticity_defect(a: np.ndarray):
    """max |a - a^dag| of a matrix, or of each matrix of a stack."""
    return _per_matrix(_joined(lambda x: np.abs(x - dag(x)).max(axis=(-2, -1)), a))


def _require_hermitian(a: np.ndarray, caller: str, rtol: float = 1e-8):
    """Reject ``a`` unless every matrix is Hermitian relative to its scale."""

    def hermitian(x):
        return hermiticity_defect(x) <= rtol * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))

    ok = _joined(hermitian, a)
    if not np.all(ok):
        raise ValueError(f"{caller} expects a Hermitian matrix{_first_bad(~ok)}")


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


def _grids_differ(a: Trajectory, b: Trajectory) -> bool:
    """Whether a and b have different sample counts, or t0 or dt apart
    by more than 1e-12 of the larger dt, so in any time unit."""
    tol = 1e-12 * max(a.dt, b.dt)
    return a.n != b.n or abs(a.t0 - b.t0) > tol or abs(a.dt - b.dt) > tol


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace a 4x4 operator, or each of a (..., 4, 4) stack, over one factor.

    ``subsystem`` names the factor that is traced OUT: ``"B"`` (second
    factor) leaves the first qubit's reduced matrix, ``"A"`` the second's.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("partial_trace expects a 4x4 matrix or a stack of them")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"rho has non-finite entries{_first_bad(~finite)}")
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

    def defects(x):
        trace = np.abs(np.trace(x, axis1=-2, axis2=-1) - 1.0)
        w = np.linalg.eigvalsh(0.5 * (x + dag(x)))
        return hermiticity_defect(x), trace, w[..., 0]

    return StateReport(*map(_per_matrix, _joined(defects, rho)), tol)


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
    powers = [k for k in range(1, max(ks, default=0) + 1) if k in ks]

    def traces(x):
        acc, out = x, []
        for k in range(1, max(powers, default=0) + 1):
            if k > 1:
                acc = acc @ x
            if k in powers:
                out.append(np.trace(acc, axis1=-2, axis2=-1))
        return tuple(out)

    out = {}
    for k, t in zip(powers, _joined(traces, rho)):
        bad = np.abs(t.imag) > 1e-9 * np.maximum(1.0, np.abs(t.real))
        if np.any(bad):
            raise ValueError(
                f"trace power has large imaginary part {np.max(np.abs(t.imag)):g}{_first_bad(bad)}"
            )
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
        return _joined(np.linalg.eigvalsh, h)
    if h.ndim < 3:
        return _gauged_eigh(h)
    w, v = np.empty(h.shape[:-1]), np.empty_like(h)
    for part in _chunks(len(h)):
        w[part], v[part] = _gauged_eigh(h[part])
    return w, v


def _gauged_eigh(h: np.ndarray):
    """eigh of a Hermitian matrix or stack, in the gauge of spectrum."""
    w, v = np.linalg.eigh(h)
    lead = np.argmax(np.abs(v) > 1e-8, axis=-2)[..., np.newaxis, :]
    ph = np.take_along_axis(v, lead, axis=-2)
    # hypot, not np.abs: it rounds |ph| as the scalar abs() does
    return w, v * (ph.conj() / np.hypot(ph.real, ph.imag))


def diff_series(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of an (n, ...) array of samples.

    Central differences at interior points, one-sided second-order
    stencils at both ends; error O(dt^2) throughout.
    """
    values = np.asarray(values)
    if values.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    d = np.empty_like(values, dtype=values.dtype if values.dtype.kind == "c" else float)
    np.subtract(values[2:], values[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * dt
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return d


@dataclass(frozen=True)
class IntegrationResult:
    """RK4 output: ``samples`` is (n_steps + 1, d, d) for one state, or
    (n_steps + 1, c, d, d) for a stack of c; the trace drift is per
    sample, and per state of a stack."""

    samples: np.ndarray = field(repr=False)
    trace_drift: np.ndarray = field(repr=False)


def _rk4_step(f, y, dt):
    """One classic RK4 step of y_dot = f(stage, y) from y, with stage 0 at
    the step's start, 1 at its midpoint and 2 at its end. ``dt`` may be
    an array that broadcasts against y, one step size per matrix."""
    half = 0.5 * dt
    k1 = f(0, y)
    k2 = f(1, y + half * k1)
    k3 = f(1, y + half * k2)
    k4 = f(2, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_integrate(generator, rho0, t0: float, dt: float, n_steps: int) -> IntegrationResult:
    """Classic fixed-step RK4 for d(rho)/dt = generator(t, rho).

    ``rho0`` is one (d, d) matrix or a (c, d, d) stack of c states
    integrated together: ``generator`` gets and returns the whole stack,
    once per RK4 stage. Returns the n_steps + 1 samples with the trace
    drift of every state relative to its initial one; step k, to sample
    k, raises if it gives any state a non-finite entry.
    """
    rho = _as_square(rho0, "rho0")
    if rho.ndim > 3:
        raise ValueError(f"rho0 must be one matrix or a (c, d, d) stack, got shape {rho.shape}")
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    offsets = (0.0, 0.5 * dt, dt)  # of the stages from the step's start
    out = np.empty((n_steps + 1,) + rho.shape, dtype=complex)
    out[0] = rho
    for i in range(n_steps):
        t = t0 + i * dt
        rho = out[i + 1] = _rk4_step(lambda stage, x: generator(t + offsets[stage], x), rho, dt)
        if not np.isfinite(rho).all():
            raise RuntimeError(f"integration produced non-finite values in step {i + 1}")
    trace = np.trace(out, axis1=-2, axis2=-1)
    return IntegrationResult(out, np.abs(trace - trace[0]))
