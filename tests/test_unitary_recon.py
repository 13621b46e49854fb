from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from qmp.bloch import pauli_decompose
from qmp.kinematics import scenario_example1, scenario_example3
from qmp.qcore import SIGMA, Trajectory, dag, rk4_integrate
from qmp.unitary_recon import (
    _best_permutation,
    EvolutionSequence,
    eigenframe_decompose,
    hamiltonian_from_evolution,
    iwasawa_decompose,
    orbit_rep,
    reconstruct_evolution,
)

from _oracles import continue_frames_per_block, random_hermitian, random_state

rng = np.random.default_rng(314)


class TestOrbitRep:
    def test_maximally_mixed(self):
        spec = orbit_rep(np.eye(4) / 4)
        assert spec.dimension == 0
        assert spec.partition == ((0, 1, 2, 3),)

    def test_pure_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        spec = orbit_rep(rho)
        assert spec.dimension == 6  # 2(n-1) for a pure state
        assert len(spec.partition) == 2

    def test_nondegenerate(self):
        spec = orbit_rep(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert spec.dimension == 12  # n(n-1)

    def test_oscillating_state_at_start(self):
        rho = scenario_example1(2.0).joint_at(0.0)
        spec = orbit_rep(rho)
        np.testing.assert_allclose(spec.gamma, [5 / 16, 4 / 16, 4 / 16, 3 / 16], atol=1e-12)
        assert any(len(b) == 2 for b in spec.partition)


class TestIwasawa:
    def test_identity(self):
        u, a, r = iwasawa_decompose(np.eye(3, dtype=complex))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(a, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-12)

    def test_shear_matrix(self):
        w = 0.8 - 0.3j
        z = np.array([[1, 0], [w, 1]], dtype=complex)
        u, a, r = iwasawa_decompose(z)
        norm = 1 / np.sqrt(1 + abs(w) ** 2)
        expect_u = norm * np.array([[1, -np.conj(w)], [w, 1]])
        np.testing.assert_allclose(u, expect_u, atol=1e-12)
        np.testing.assert_allclose(u @ a @ r, z, atol=1e-12)

    def test_random_unit_determinant(self):
        for _ in range(10):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            z /= np.linalg.det(z) ** (1 / 4)
            u, a, r = iwasawa_decompose(z)
            np.testing.assert_allclose(u @ dag(u), np.eye(4), atol=1e-10)
            d = np.diag(a).real
            assert np.all(d > 0)
            assert np.prod(d) == pytest.approx(1.0, abs=1e-8)
            assert np.allclose(np.tril(r, -1), 0)
            np.testing.assert_allclose(np.diag(r), 1, atol=1e-12)
            np.testing.assert_allclose(u @ a @ r, z, atol=1e-10)

    def test_rejects_rescaled_input(self):
        with pytest.raises(ValueError):
            iwasawa_decompose(2 * np.eye(2, dtype=complex))


class TestReconstructEvolution:
    def test_constant_trajectory_gives_identity(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        traj = Trajectory(0.0, 0.1, np.array([rho] * 10))
        seq = reconstruct_evolution(traj)
        for u in seq.u:
            np.testing.assert_allclose(u, np.eye(4), atol=1e-12)

    def test_matches_generated_flow(self):
        h = random_hermitian(rng)
        rho0 = random_state(rng)
        dt = 1e-3

        def rhs(t, r):
            return -1j * (h @ r - r @ h)

        traj = rk4_integrate(rhs, rho0, 0.0, dt, 400).trajectory
        seq = reconstruct_evolution(traj)
        worst = 0.0
        for u, rho in zip(seq.u, traj.samples):
            worst = max(worst, np.max(np.abs(u @ rho0 @ dag(u) - rho)))
        assert worst < 1e-8

    def test_aborts_on_spectrum_drift(self):
        traj = scenario_example3(2.0, 0.2).joint(0.0, 0.01, 50)
        with pytest.raises(ValueError, match="drift .* at sample 1:"):
            reconstruct_evolution(traj)
        # unitary up to sample 11, then partly depolarized: the error names 12
        samples = scenario_example1(2.0).joint(0.0, 0.01, 30).samples.copy()
        samples[12:] = 0.9 * samples[12:] + 0.025 * np.eye(4)
        with pytest.raises(ValueError, match="drift .* at sample 12:"):
            reconstruct_evolution(Trajectory(0.0, 0.01, samples))

    def test_sequence_invariants(self):
        traj = scenario_example1(2.0).joint(0.0, 0.01, 100)
        seq = reconstruct_evolution(traj)
        assert seq.n == traj.n
        np.testing.assert_allclose(seq.u[0], np.eye(4), atol=1e-12)
        for u in seq.u[::11]:
            np.testing.assert_allclose(u @ dag(u), np.eye(4), atol=1e-10)


class TestHamiltonianFromEvolution:
    def test_known_generator(self):
        h = np.kron(SIGMA[3], SIGMA[0])
        dt = 1e-3
        u = np.array([expm(-1j * h * i * dt) for i in range(50)])
        seq = EvolutionSequence(0.0, dt, u)
        out = hamiltonian_from_evolution(seq)
        np.testing.assert_allclose(out.trajectory.samples, np.broadcast_to(h, (50, 4, 4)), atol=1e-5)
        assert out.antihermitian_defect < 10 * dt**2

    def test_exchange_model_coefficients(self):
        j = 2.0
        traj = scenario_example1(j).joint(0.0, np.pi / 629, 630)
        ham = hamiltonian_from_evolution(reconstruct_evolution(traj))
        for h in ham.trajectory.samples[1:-1:50]:
            dec = pauli_decompose(h).h
            assert dec[1, 1] == pytest.approx(-j / 4, abs=1e-5)
            assert dec[2, 2] == pytest.approx(-j / 4, abs=1e-5)
            rest = dec.copy()
            rest[1, 1] = rest[2, 2] = 0
            assert np.max(np.abs(rest)) < 1e-5

    def test_gauge_independence(self):
        from types import SimpleNamespace
        from qmp.qcore import spectrum

        traj = scenario_example1(2.0).joint(0.0, 0.005, 200)
        seq = reconstruct_evolution(traj)
        # constant unitary commuting with rho(0): random phases per
        # eigenvalue plus a rotation inside the degenerate pair
        w0, v0 = spectrum(traj.samples[0], vectors=True)
        phases = np.diag(np.exp(1j * np.array([0.3, 1.1, 1.1, -0.7])))
        th = 0.4
        mix = np.eye(4, dtype=complex)
        # ascending order puts the two 1/4 eigenvalues at positions 1, 2
        mix[1:3, 1:3] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        w = v0 @ (phases @ mix) @ dag(v0)
        assert np.max(np.abs(w @ traj.samples[0] - traj.samples[0] @ w)) < 1e-12
        shifted = SimpleNamespace(
            t0=seq.t0, dt=seq.dt, u=np.einsum("nij,jk->nik", seq.u, w)
        )
        h1 = hamiltonian_from_evolution(seq).trajectory.samples
        h2 = hamiltonian_from_evolution(shifted).trajectory.samples
        np.testing.assert_allclose(h1, h2, atol=1e-10)


def test_half_grid_is_geodesic_midpoint():
    # for U(t) = exp(-iHt) the geodesic midpoint of U_i and U_{i+1} is
    # U(t_i + dt/2), as long as the step turns every phase by less than pi
    h = random_hermitian(np.random.default_rng(5))
    dt = 0.5 / np.max(np.abs(np.linalg.eigvalsh(h)))
    u = np.array([expm(-1j * h * i * dt) for i in range(7)])
    half = EvolutionSequence(0.0, dt, u).half_grid()
    assert (half.n, half.dt) == (13, dt / 2)
    np.testing.assert_array_equal(half.u[::2], u)
    mid = np.array([expm(-1j * h * (i + 0.5) * dt) for i in range(6)])
    np.testing.assert_allclose(half.u[1::2], mid, atol=1e-13)


class TestEigenframe:
    def test_dissipative_hamiltonian_part(self):
        j, gamma = 2.0, 0.2
        traj = scenario_example3(j, gamma).joint(0.0, 1e-3, 2001)
        frame = eigenframe_decompose(traj)
        hm = hamiltonian_from_evolution(frame.useq).trajectory.samples.mean(axis=0)
        dec = pauli_decompose(hm).h
        assert dec[1, 1] == pytest.approx(3 * j / 8, abs=1e-5)
        assert dec[2, 2] == pytest.approx(-3 * j / 8, abs=1e-5)

    def test_branches_reproduce_state(self):
        from qmp.qcore import spectrum

        traj = scenario_example3(2.0, 0.2).joint(0.0, 1e-3, 500)
        frame = eigenframe_decompose(traj)
        # V(t) = U(t) V0 with V0 the descending-ordered t0 eigenbasis;
        # then V W(t) V^dag must rebuild rho(t) exactly
        w0, v0 = spectrum(traj.samples[0], vectors=True)
        v0 = v0[:, np.argsort(-w0, kind="stable")]
        worst = 0.0
        for i in range(0, 500, 23):
            vi = frame.useq.u[i] @ v0
            rebuilt = vi @ np.diag(frame.branches[i]) @ dag(vi)
            worst = max(worst, np.max(np.abs(rebuilt - traj.samples[i])))
        assert worst < 1e-9

    def test_decoupled_eigenvector_stays_exactly_decoupled(self):
        # |10> (index 2) is an eigenvector of every example3 sample, alone
        # in its block; the alignment of the other blocks must not leak
        # rounding into it, so U(t) keeps its row and column exactly
        traj = scenario_example3(2.0, 0.2).joint(0.0, 1e-3, 2001)
        u = eigenframe_decompose(traj).useq.u
        rest = [0, 1, 3]
        assert np.count_nonzero(u[:, 2, rest]) == 0
        assert np.count_nonzero(u[:, rest, 2]) == 0


square_scores = st.integers(1, 4).flatmap(
    lambda k: arrays(np.float64, (k, k), elements=st.floats(-1.0, 1.0))
)


@settings(deadline=None, max_examples=300)
@given(score=square_scores)
def test_label_matcher_matches_linear_sum_assignment(score):
    k = len(score)
    perm = _best_permutation(score)
    rows, cols = linear_sum_assignment(score, maximize=True)
    assert sorted(perm.tolist()) == list(range(k))
    total = score[np.arange(k), perm].sum()
    assert total == pytest.approx(score[rows, cols].sum(), rel=0, abs=1e-12)
    totals = sorted(score[np.arange(k), list(p)].sum() for p in permutations(range(k)))
    if k == 1 or totals[-1] - totals[-2] > 1e-12:
        np.testing.assert_array_equal(perm, cols)


def test_continuation_rejects_dim_above_4():
    traj = Trajectory(0.0, 0.1, np.array([np.eye(8, dtype=complex) / 8] * 3))
    with pytest.raises(ValueError, match="dim 8"):
        eigenframe_decompose(traj)


# rho0 spectra: nondegenerate, two pairs, a triple, and pure (a triple at 0)
RHO0_SPECTRA = {
    "nondegenerate": [0.4, 0.3, 0.2, 0.1],
    "2+2": [0.35, 0.35, 0.15, 0.15],
    "3+1": [0.1, 0.3, 0.3, 0.3],
    "pure": [0.0, 1.0, 0.0, 0.0],
}


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(RHO0_SPECTRA) + ["crossing"]),
    slope=st.floats(0.1, 0.35),
    cross=st.sampled_from([0, 20]),
)
def test_continuation_matches_per_block_oracle(seed, kind, slope, cross):
    # rho(t) = U(t) V0 Gamma(t) V0^dag U(t)^dag with U(t) = exp(-iHt); in the
    # crossing case two branches of Gamma are equal at sample `cross` (at 0
    # a degenerate block of rho0 splits), and a third branch crosses both
    # between samples
    rng = np.random.default_rng(seed)
    n, dt = 41, 0.02
    t = dt * np.arange(n)
    e, w = np.linalg.eigh(random_hermitian(rng))
    v0, _ = np.linalg.qr(rng.normal(size=(4, 8)).view(complex))
    flow = np.einsum("ij,tj,kj->tik", w, np.exp(-1j * np.outer(t, e)), w.conj()) @ v0
    if kind == "crossing":
        tau = slope * (t - t[cross])
        gamma = np.stack([0.3 + tau, 0.3 - tau, np.full(n, 0.25), np.full(n, 0.15)], axis=1)
    else:
        gamma = np.broadcast_to(RHO0_SPECTRA[kind], (n, 4))
    samples = (flow * gamma[:, None, :]) @ dag(flow)
    traj = Trajectory(0.0, dt, samples)

    frames, branches = continue_frames_per_block(samples)
    u_oracle = frames @ dag(frames[0])  # the oracle's own t0 gauge (raw eigh)
    frame = eigenframe_decompose(traj)
    np.testing.assert_allclose(frame.useq.u, u_oracle, rtol=0, atol=1e-12)
    got = frame.branches
    np.testing.assert_allclose(got, branches, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sort(got), np.sort(gamma), rtol=0, atol=1e-12)
    # every Gamma branch is linear in t, so labels that follow them through
    # the crossings have zero second difference; sorted values would kink
    assert np.abs(np.diff(got, 2, axis=0)).max() < 1e-12
    if kind == "crossing":
        return
    seq = reconstruct_evolution(traj)
    np.testing.assert_array_equal(seq.u, frame.useq.u)
    round_trip = seq.u @ samples[0] @ dag(seq.u)
    np.testing.assert_allclose(round_trip, samples, rtol=0, atol=1e-12)
