"""Kinematic side of the time-dependent marginal problem.

Tools to test whether a sampled joint trajectory can be unitary
(constant trace powers), to test isospectrality of a marginal pair, and
to compute the admissible window for the conserved population constant
of the two-coherence ansatz. The three worked scenarios used
throughout the test suite are provided as samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .qcore import (
    SIGMA, Trajectory, _grids_differ, _require_hermitian, _trace_powers, partial_trace
)

__all__ = [
    "MarginalPair",
    "UnitarityReport",
    "IsospectralReport",
    "WindowReport",
    "unitarity_test",
    "isospectral_test",
    "unitary_window",
    "scenario_example1",
    "scenario_example2",
    "scenario_example3",
]


@dataclass(frozen=True)
class MarginalPair:
    """Two single-qubit trajectories on a shared uniform grid."""

    rho_a: Trajectory
    rho_b: Trajectory

    def __post_init__(self):
        a, b = self.rho_a, self.rho_b
        if a.dim != 2 or b.dim != 2:
            raise ValueError("marginals must be 2x2 trajectories")
        if _grids_differ(a, b):
            raise ValueError("marginal grids differ")

    @cached_property
    def bloch_vectors(self) -> tuple:
        """(r_a, r_b), r_k = Tr(rho sigma_k) for k = 0..3 of each marginal:
        (n, 4) each and read-only. Computed once, with one Hermiticity
        check per marginal, for every test of the pair that reads them."""
        vectors = []
        for traj in (self.rho_a, self.rho_b):
            _require_hermitian(traj.samples, "MarginalPair")
            r = np.einsum("nij,kji->nk", traj.samples, SIGMA).real
            r.setflags(write=False)
            vectors.append(r)
        return tuple(vectors)


@dataclass(frozen=True)
class UnitarityReport:
    passed: bool
    drift: dict  # k -> max_t |Tr rho^k(t) - Tr rho^k(t0)|


@dataclass(frozen=True)
class IsospectralReport:
    isospectral: bool
    max_distance: float


@dataclass(frozen=True)
class WindowReport:
    """Admissible interval for the conserved constant c = rho11 + rho44.

    ``exists`` is False when c_lo exceeds c_hi, which certifies that no
    unitarily evolving joint state is compatible with the marginals
    within the two-coherence ansatz.
    """

    c_lo: float
    c_hi: float

    @property
    def exists(self) -> bool:
        return self.c_lo <= self.c_hi + 1e-12


def unitarity_test(traj: Trajectory, tol: float = 1e-10) -> UnitarityReport:
    """Constancy of the trace powers Tr rho^k, k = 2..dim, along the trajectory.

    A trajectory evolves unitarily iff its spectrum is constant. By
    Newton's identities the powers k = 1..dim fix the spectrum, so the
    max drift of k = 2..dim relative to the first sample decides the
    verdict. Supports dim <= 4.
    """
    if traj.dim > 4:
        raise ValueError(f"unitarity test supports dim <= 4, got dim {traj.dim}")
    powers = _trace_powers(traj.samples, range(2, traj.dim + 1))
    drift = {k: float(np.max(np.abs(p - p[0]))) for k, p in powers.items()}
    return UnitarityReport(all(d <= tol for d in drift.values()), drift)


def isospectral_test(pair: MarginalPair, tol: float = 1e-9) -> IsospectralReport:
    """Max distance between the sorted spectra (r0 -+ |r|)/2 of marginals
    with Bloch vectors r_a, r_b: max over t of (|r0_a - r0_b| + ||r_a| - |r_b||)/2."""
    ra, rb = pair.bloch_vectors
    d0 = np.abs(ra[:, 0] - rb[:, 0])
    d = np.abs(np.linalg.norm(ra[:, 1:], axis=1) - np.linalg.norm(rb[:, 1:], axis=1))
    dist = float(np.max(d0 + d)) / 2
    return IsospectralReport(dist < tol, dist)


# |r| below which a marginal has no Bloch axis to follow
_AXIS_FLOOR = 1e-12


def _bloch_branches(r: np.ndarray):
    """Labeled branches (r0 + alpha)/2, (r0 - alpha)/2 of a qubit trajectory
    with (n, 4) Bloch vectors r_k = Tr(rho sigma_k) and alpha = +-|r|,
    labeled as unitary_window states. A sample with |r| <= _AXIS_FLOOR has
    no axis and takes the sign of the last one above (the first, if none is).
    """
    length = np.linalg.norm(r[:, 1:], axis=1)
    axes = np.flatnonzero(length > _AXIS_FLOOR)
    u = r[axes, 1:] / length[axes, None]
    reversals = np.cumsum(np.einsum("ik,ik->i", u[1:], u[:-1]) < 0)
    last = np.maximum(np.searchsorted(axes, np.arange(len(r)), side="right") - 1, 0)
    parity = np.concatenate(([0], reversals))[last] % 2
    ref = np.argmax(length > length.max() - _AXIS_FLOOR)
    alpha = np.where(parity == parity[ref], length, -length)
    return 0.5 * np.stack([r[:, 0] + alpha, r[:, 0] - alpha], axis=1)


def _refined_extremum(f: np.ndarray) -> float:
    """Max of |f| on the grid, sharpened by a local quadratic fit."""
    i = int(np.argmax(np.abs(f)))
    best = abs(f[i])
    if 0 < i < len(f) - 1:
        s = np.sign(f[i]) or 1.0
        y0, y1, y2 = s * f[i - 1], s * f[i], s * f[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:  # genuine local max of the signed branch
            vertex = y1 - 0.125 * (y2 - y0) ** 2 / denom
            best = max(best, vertex)
    return float(best)


def unitary_window(pair: MarginalPair) -> WindowReport:
    """Admissible interval for c = rho11 + rho44 of the two-coherence ansatz.

    The ansatz is taken in each marginal's own eigenframe, fixed or
    moving, so a local frame F_A(t) (x) F_B(t) leaves the window as it
    is. With labeled eigenvalue branches a_i, b_i of the marginals, the
    populations of a compatible joint state stay non-negative iff

        max_t |a1 b1 - a2 b2|  <=  c  <=  min_t [1 - |a1 b2 - a2 b1|].

    Labels follow each marginal's Bloch axis: they swap only where the
    axis reverses between consecutive samples with Bloch length above
    1e-12, so a crossing keeps them on their smooth branches. a1 is the
    larger branch at the first sample whose gap is within 1e-12 of the
    largest, so rounding cannot pick between tied peaks (b1 likewise).
    Extrema are evaluated on the grid with local quadratic refinement.
    """
    a, b = map(_bloch_branches, pair.bloch_vectors)
    g1 = a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1]
    g2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return WindowReport(_refined_extremum(g1), 1.0 - _refined_extremum(g2))


# ---------------------------------------------------------------------------
# Worked scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    """Samplers for one worked scenario (joint and/or marginal states);
    each maps a time, or an array of times of any shape, to one state per time."""

    joint_at: Optional[callable]
    rho_a_at: callable
    rho_b_at: callable

    def joint(self, t0: float, dt: float, n: int) -> Trajectory:
        if self.joint_at is None:
            raise ValueError("this scenario has no joint trajectory")
        return Trajectory(t0, dt, self.joint_at(t0 + dt * np.arange(n)))

    def marginals(self, t0: float, dt: float, n: int) -> MarginalPair:
        ts = t0 + dt * np.arange(n)
        return MarginalPair(
            Trajectory(t0, dt, self.rho_a_at(ts)), Trajectory(t0, dt, self.rho_b_at(ts))
        )


def scenario_example1(j: float) -> _Scenario:
    """Mixed, unitarily evolving joint state with oscillating populations.

    The joint state is block-diagonal with constant corners 1/4 and a
    rotating middle block; its marginals have populations
    (8 +/- cos(Jt))/16. The generating Hamiltonian is the exchange term
    -(J/4)(s1 s1 + s2 s2).
    """
    if not j > 0:
        raise ValueError("J must be positive")

    def joint_at(t):
        c, s = np.cos(j * t), np.sin(j * t)
        rho = np.zeros(np.shape(t) + (4, 4), dtype=complex)
        rho[..., 0, 0] = rho[..., 3, 3] = 0.25
        rho[..., 1, 1] = (4 + c) / 16
        rho[..., 2, 2] = (4 - c) / 16
        rho[..., 1, 2] = -1j * s / 16
        rho[..., 2, 1] = 1j * s / 16
        return rho

    def marginal_at(t, sign):
        c = sign * np.cos(j * t)
        rho = np.zeros(np.shape(t) + (2, 2), dtype=complex)
        rho[..., 0, 0] = (8 + c) / 16
        rho[..., 1, 1] = (8 - c) / 16
        return rho

    return _Scenario(joint_at, lambda t: marginal_at(t, 1), lambda t: marginal_at(t, -1))


def scenario_example2(omega: float) -> _Scenario:
    """Marginal pair with out-of-phase coherences and no unitary joint.

    Both marginals are diagonal in fixed bases but their spectra are
    (1 -/+ cos 2wt)/2 versus (1 -/+ sin 2wt)/2, which rules out any
    unitarily evolving joint state. No joint sampler exists.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")

    def marginal_at(t, f):
        rho = np.zeros(np.shape(t) + (2, 2), dtype=complex)
        rho[..., 0, 0] = rho[..., 1, 1] = 0.5
        rho[..., 0, 1] = rho[..., 1, 0] = 0.5 * f(2 * omega * t)
        return rho

    return _Scenario(None, lambda t: marginal_at(t, np.cos), lambda t: marginal_at(t, np.sin))


def scenario_example3(j: float, gamma: float) -> _Scenario:
    """Dissipative joint trajectory from |00> with rate gamma.

    The state is U_t Gamma(t) U_t^dag with Gamma(t) =
    diag(b+/2, 0, b-/2, 0), b+- = 1 +/- exp(-gamma t), and U_t the
    rotation generated by (3J/8)(s1 s1 - s2 s2). At gamma = 0 it reduces
    to a pure unitarily evolving trajectory.
    """
    if not j > 0:
        raise ValueError("J must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")

    def joint_at(t):
        e = np.exp(-gamma * t)
        bp, bm = 1 + e, 1 - e
        c, s = np.cos(3 * j * t / 4), np.sin(3 * j * t / 4)
        big_s = np.sin(3 * j * t / 2)
        rho = np.zeros(np.shape(t) + (4, 4), dtype=complex)
        rho[..., 0, 0] = 0.5 * bp * c * c
        rho[..., 2, 2] = 0.5 * bm
        rho[..., 3, 3] = 0.5 * bp * s * s
        rho[..., 0, 3] = 0.25j * bp * big_s
        rho[..., 3, 0] = -0.25j * bp * big_s
        return rho

    return _Scenario(
        joint_at,
        lambda t: partial_trace(joint_at(t), "B"),
        lambda t: partial_trace(joint_at(t), "A"),
    )
