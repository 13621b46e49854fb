import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import nnls

from qmp.bloch import to_coherence, traceless_basis
from qmp.kinematics import scenario_example1, scenario_example3
from qmp.qcore import Trajectory, rk4_integrate
from qmp.unitary_recon import (
    EvolutionSequence,
    eigenframe_decompose,
    hamiltonian_from_evolution,
    reconstruct_evolution,
)
from qmp.dissipative_recon import (
    _BLOCK,
    _DIAGONAL_COHERENCE,
    _cumulative_trapezoid,
    _grid_index,
    _lab_frame,
    _nnls,
    AffineGenerator,
    KossakowskiMatrix,
    anticommutation_table,
    candidate_diagonals,
    cp_check,
    d_from_k,
    fit_diagonal_unital,
    generator_residual,
    hamiltonian_action,
    integrated_cp_check,
    k_from_d,
    roundtrip_verify,
)

from _oracles import (
    affine_from_superoperator,
    diagonal_rate_misfit,
    dissipator_per_term,
    dissipator_superoperator,
    random_hermitian,
    random_state,
    rk4_per_state,
)

rng = np.random.default_rng(2718)
GAMMA = 0.2


def choice1_rates(gamma=GAMMA):
    """Decay on the two exponentially damped components only."""
    d = np.zeros(15)
    d[11] = d[14] = -gamma  # generators 12 (s3 x I) and 15 (s3 x s3)
    return d


def choice2_rates(gamma=GAMMA):
    """Decay on every component involving the first qubit's s3 sector."""
    d = np.zeros(15)
    d[7:] = -gamma  # generators 8..15
    return d


def dissipate(k, x):
    """Diss_K[X] of a 4x4 X, as the product of K's Liouvillian with vec(X)."""
    return (k.liouvillian @ x.reshape(16)).reshape(4, 4)


class TestHamiltonianAction:
    def test_zero(self):
        np.testing.assert_allclose(hamiltonian_action(np.zeros((4, 4))), 0)

    def test_skew_symmetric(self):
        m = hamiltonian_action(random_hermitian(rng))
        np.testing.assert_allclose(m + m.T, 0, atol=1e-12)

    def test_single_qubit_embedding(self):
        # H = h3 s3 x I rotates the first qubit's x into y at rate 2 h3
        h3 = 0.7
        g = traceless_basis()
        m = hamiltonian_action(h3 * g[11])  # generator 12 = s3 x I
        # x components of qubit A live at generators 4 and 8 (positions 3, 7)
        assert m[7, 3] == pytest.approx(2 * h3, abs=1e-12)
        assert m[3, 7] == pytest.approx(-2 * h3, abs=1e-12)

    def test_matches_direct_flow(self):
        h = random_hermitian(rng)
        rho = random_state(rng)
        m = hamiltonian_action(h)
        r = to_coherence(rho).as_vector()
        rhodot = -1j * (h @ rho - rho @ h)
        g = traceless_basis()
        rdot = np.einsum("kij,ji->k", g, rhodot).real
        np.testing.assert_allclose(m @ r, rdot, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hamiltonian_action(np.triu(np.ones((4, 4))))


class TestGeneratorResidual:
    def test_vanishes_for_closed_dynamics(self):
        traj = scenario_example1(2.0).joint(0.0, 1e-3, 500)
        from qmp.unitary_recon import reconstruct_evolution

        ham = hamiltonian_from_evolution(reconstruct_evolution(traj))
        res = generator_residual(traj, ham.trajectory)
        assert np.max(np.abs(res.samples[1:-1])) < 1e-6

    def test_dissipative_residual_properties(self):
        j, gamma = 2.0, 0.2
        traj = scenario_example3(j, gamma).joint(0.0, 1e-3, 500)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])  # s1s1 - s2s2
        hseq = Trajectory(0.0, 1e-3, np.array([h] * 500))
        res = generator_residual(traj, hseq)
        assert np.max(np.abs(res.samples)) > 1e-3  # genuinely non-unitary
        for r in res.samples[1:-1:100]:
            assert abs(np.trace(r)) < 1e-8
            np.testing.assert_allclose(r, r.conj().T, atol=1e-8)

    def test_vanishes_without_damping(self):
        j = 2.0
        traj = scenario_example3(j, 0.0).joint(0.0, 1e-3, 500)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])
        res = generator_residual(traj, Trajectory(0.0, 1e-3, np.array([h] * 500)))
        # bounded by the O(dt^2) stencil error of the time derivative
        assert np.max(np.abs(res.samples[1:-1])) < 1e-5


class TestAnticommutation:
    def test_symmetric_with_zero_diagonal(self):
        b = anticommutation_table()
        np.testing.assert_allclose(b, b.T)
        np.testing.assert_allclose(np.diag(b), 0)

    def test_each_generator_anticommutes_with_eight(self):
        b = anticommutation_table()
        np.testing.assert_allclose(b.sum(axis=1), 8)

    def test_invertible(self):
        assert np.linalg.matrix_rank(anticommutation_table()) == 15


class TestFit:
    def test_damped_diagonal_frame(self):
        traj = scenario_example3(2.0, GAMMA).joint(0.0, 1e-3, 2001)
        frame = eigenframe_decompose(traj)
        fit = fit_diagonal_unital(frame.branches, traj.dt)
        assert [i + 1 for i in fit.active] == [3, 12, 15]
        assert fit.d_diag[2] == pytest.approx(0.0, abs=1e-8)
        assert fit.d_diag[11] == pytest.approx(-GAMMA, abs=1e-6)
        assert fit.d_diag[14] == pytest.approx(-GAMMA, abs=1e-6)
        assert fit.residual < 1e-6
        # the sparser rate assignment fits the same data equally well
        assert diagonal_rate_misfit(frame.branches, traj.dt, choice1_rates()) < 1e-6

    @settings(deadline=None, max_examples=100)
    @given(
        branches=arrays(
            np.float64, st.tuples(st.integers(1, 30), st.just(4)), elements=st.floats(-1.0, 1.0)
        )
    )
    def test_branch_coherence_matches_to_coherence(self, branches):
        # the fit reads r = branches @ _DIAGONAL_COHERENCE, the coherence
        # vector of the diagonal states diag(branches)
        want = to_coherence(branches[:, :, np.newaxis] * np.eye(4)).as_vector()
        np.testing.assert_allclose(branches @ _DIAGONAL_COHERENCE, want, rtol=0, atol=1e-15)

    def test_static_trajectory_fits_zero(self):
        fit = fit_diagonal_unital(np.tile([0.4, 0.3, 0.2, 0.1], (10, 1)), 0.1)
        np.testing.assert_allclose(fit.d_diag, 0, atol=1e-12)
        assert fit.residual < 1e-12


class TestKossakowskiMaps:
    def test_zero_round_trip(self):
        gen = d_from_k(KossakowskiMatrix(np.zeros((15, 15))))
        np.testing.assert_allclose(gen.d, 0)
        np.testing.assert_allclose(gen.l, 0)

    def test_choice1_matrix(self):
        k = k_from_d(choice1_rates())
        expect = (GAMMA / 8) * np.array(
            [0, 0, -1, 1, 0, 0, 1, 1, 0, 0, 1, -1, 0, 0, -1], dtype=float
        )
        np.testing.assert_allclose(np.diag(k.k).real, expect, atol=1e-12)
        rep = cp_check(k)
        assert not rep.valid
        assert rep.min_eigenvalue == pytest.approx(-GAMMA / 8, abs=1e-12)

    def test_choice2_matrix(self):
        k = k_from_d(choice2_rates())
        expect = np.zeros(15)
        expect[3] = GAMMA / 2  # the s1 x I generator
        np.testing.assert_allclose(np.diag(k.k).real, expect, atol=1e-12)
        rep = cp_check(k)
        assert rep.valid
        spec = np.sort(k.spectrum())
        np.testing.assert_allclose(spec[:-1], 0, atol=1e-12)
        assert spec[-1] == pytest.approx(GAMMA / 2, abs=1e-12)

    def test_diagonal_round_trip(self):
        d = rng.normal(size=15)
        k = k_from_d(d)
        gen = d_from_k(k)
        np.testing.assert_allclose(np.diag(gen.d), d, atol=1e-10)
        assert gen.unital

    def test_d_from_k_linear(self):
        k1 = random_hermitian(rng, 15)
        k2 = random_hermitian(rng, 15)
        g12 = d_from_k(KossakowskiMatrix(k1 + 2 * k2))
        g1 = d_from_k(KossakowskiMatrix(k1))
        g2 = d_from_k(KossakowskiMatrix(k2))
        np.testing.assert_allclose(g12.d, g1.d + 2 * g2.d, atol=1e-10)

    def test_matches_superoperator_oracle(self):
        for _ in range(5):
            km = random_hermitian(rng, 15)
            gen = d_from_k(KossakowskiMatrix(km))
            d2, l2 = affine_from_superoperator(dissipator_superoperator(km))
            np.testing.assert_allclose(gen.d, d2, atol=1e-12)
            np.testing.assert_allclose(gen.l, l2, atol=1e-12)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=50)
@given(
    a=arrays(np.float64, (2, 15, 15), elements=unit_floats),
    x=arrays(np.float64, (2, 4, 4), elements=unit_floats),
    d=arrays(np.float64, 15, elements=unit_floats),
)
def test_liouvillian_matches_per_term_oracle(a, x, d):
    km = (a[0] + a[0].T) + 1j * (a[1] - a[1].T)
    xc = x[0] + 1j * x[1]
    got = dissipate(KossakowskiMatrix(km), xc)
    np.testing.assert_allclose(got, dissipator_per_term(km, xc), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.diag(d_from_k(k_from_d(d)).d), d, rtol=0, atol=1e-12)


class TestGksl:
    def test_bit_flip_dissipator_on_ground_state(self):
        k = k_from_d(choice2_rates())
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        x1 = np.kron([[0, 1], [1, 0]], np.eye(2))
        expect = (GAMMA / 2) * (x1 @ rho @ x1 - rho)
        np.testing.assert_allclose(dissipate(k, rho), expect, atol=1e-14)

    def test_traceless_hermitian_output(self):
        km = KossakowskiMatrix(random_hermitian(rng, 15))
        rho = random_state(rng)
        out = dissipate(km, rho)
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_unital_fixed_point(self):
        km = KossakowskiMatrix(random_hermitian(rng, 15))
        out = dissipate(km, np.eye(4, dtype=complex) / 4)
        gen = d_from_k(km)
        if gen.unital:
            np.testing.assert_allclose(out, 0, atol=1e-12)

    def test_psd_k_preserves_positivity(self):
        a = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        km = KossakowskiMatrix(0.02 * (a @ a.conj().T))
        h = random_hermitian(rng)

        def rhs(t, rho):
            return -1j * (h @ rho - rho @ h) + dissipate(km, rho)

        for _ in range(5):
            res = rk4_integrate(rhs, random_state(rng), 0.0, 1e-2, 300)
            w = np.linalg.eigvalsh(res.trajectory.samples[-1])
            assert w[0] >= -1e-6


class TestCpChecks:
    def test_integrated_constant_psd(self):
        ks = np.tile(np.abs(rng.normal(size=15)), (50, 1))
        rep = integrated_cp_check(ks, 0.0, 0.1)
        assert rep.passed

    def test_integrated_oscillating_rate(self):
        # K44(t) = g cos(wt): integral g sin(wt)/w dips negative after t = pi/w
        w = 2.0
        ts = np.linspace(0, np.pi / w, 200)
        ks = np.zeros((200, 15))
        ks[:, 3] = GAMMA * np.cos(w * ts)
        rep = integrated_cp_check(ks, 0.0, ts[1] - ts[0], tol=1e-6)
        assert rep.passed
        ts = np.linspace(0, 2 * np.pi / w, 400)
        ks = np.zeros((400, 15))
        ks[:, 3] = GAMMA * np.cos(w * ts)
        rep = integrated_cp_check(ks, 0.0, ts[1] - ts[0], tol=1e-6)
        assert not rep.passed
        assert rep.worst_index == 3
        assert rep.worst_time == pytest.approx(3 * np.pi / (2 * w), abs=0.05)


@settings(deadline=None, max_examples=100)
@given(
    ks=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 15)),
        elements=st.floats(-1e3, 1e3),
    ),
    dt=st.floats(1e-6, 10.0),
)
def test_cumulative_trapezoid_is_bit_equal_to_oracle(ks, dt):
    got = _cumulative_trapezoid(ks, dt)
    ref = cumulative_trapezoid(ks, dx=dt, axis=0, initial=0)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), shaped_like_fit=st.booleans())
def test_nnls_matches_oracle_and_kkt(seed, shaped_like_fit):
    r = np.random.default_rng(seed)
    if shaped_like_fit:
        # A = -2 B[active, :], as in candidate_diagonals; half the right
        # sides are attainable rates of a sparse non-negative K
        active = np.flatnonzero(r.random(15) < r.uniform(0.05, 1.0))
        a = -2.0 * anticommutation_table()[np.union1d(active, [r.integers(15)]), :]
        if r.random() < 0.5:
            b = a @ (np.abs(r.normal(size=15)) * (r.random(15) < 0.3))
        else:
            b = 0.2 * r.normal(size=len(a))
    else:
        m, n = r.integers(1, 16, size=2)
        a = r.normal(size=(m, n))
        b = r.normal(size=m)
    x, rnorm = _nnls(a, b)
    _, rnorm_ref = nnls(a, b)
    # the rounding scale of a residual a x - b
    scale = max(1.0, float(np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x)))
    assert abs(rnorm - rnorm_ref) <= 1e-12 * scale
    assert np.all(x >= 0.0)
    assert rnorm == pytest.approx(np.linalg.norm(a @ x - b), rel=0, abs=1e-14 * scale)
    # KKT: no descent direction into the bound, zero gradient where x > 0
    grad = a.T @ (b - a @ x)
    gtol = 1e-10 * scale * max(1.0, float(np.abs(a).max()))
    assert np.all(grad <= gtol)
    assert np.all(np.abs(grad[x > 0.0]) <= gtol)


class TestCandidates:
    def test_damped_scenario_candidates(self):
        traj = scenario_example3(2.0, GAMMA).joint(0.0, 1e-3, 2001)
        fit = fit_diagonal_unital(eigenframe_decompose(traj).branches, traj.dt)
        cands = candidate_diagonals(fit)
        labels = [label for label, _, _ in cands]
        assert labels[0] == "zero"
        assert "single:4" in labels
        by_label = {label: k for label, _, k in cands}
        assert not cp_check(by_label["zero"]).valid
        assert cp_check(by_label["single:4"]).valid

    def test_zero_fit_yields_trivial_candidate(self):
        fit = fit_diagonal_unital(np.tile([0.4, 0.3, 0.2, 0.1], (10, 1)), 0.1)
        cands = candidate_diagonals(fit)
        label, d_full, k = cands[0]
        assert cp_check(k).valid
        np.testing.assert_allclose(d_full, 0, atol=1e-12)


class TestRotateAndRoundtrip:
    def test_identity_sequence_is_direct_application(self):
        lk = k_from_d(choice2_rates()).liouvillian
        lab = _lab_frame(lk[np.newaxis], np.array([np.eye(4, dtype=complex)] * 5))
        assert lab.shape == (5, 1, 16, 16)
        np.testing.assert_allclose(lab[:, 0], np.broadcast_to(lk, (5, 16, 16)), atol=1e-13)

    def test_off_grid_time_rejected(self):
        u = np.array([np.eye(4, dtype=complex)] * 5)
        seq = EvolutionSequence(0.0, 0.1, u)
        assert _grid_index(seq, 0.2) == 2
        with pytest.raises(ValueError, match="grid"):
            _grid_index(seq, 0.25)
        with pytest.raises(ValueError, match="grid"):
            _grid_index(seq, 0.5)

    def test_rotated_dissipator_matches_residual(self):
        j, dt = 2.0, 5e-4
        traj = scenario_example3(j, GAMMA).joint(0.0, dt, 2001)
        frame = eigenframe_decompose(traj)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])
        res = generator_residual(traj, Trajectory(0.0, dt, np.array([h] * 2001)))
        idx = np.arange(1, 2000, 53)
        lab = _lab_frame(k_from_d(choice2_rates()).liouvillian[np.newaxis], frame.useq.u[idx])
        diss = (lab[:, 0] @ traj.samples[idx].reshape(-1, 16, 1)).reshape(-1, 4, 4)
        assert np.max(np.abs(diss - res.samples[idx])) < 1e-6

    def test_unitary_roundtrip(self):
        j = 2.0
        traj = scenario_example1(j).joint(0.0, 1e-3, 1001)
        g = traceless_basis()
        h = -(j / 4) * (g[4] + g[9])
        # K = 0, the candidate reconstruct master reports for unitary input
        k0 = KossakowskiMatrix(np.zeros((15, 15)))
        rep = roundtrip_verify(traj, h, [k0], reconstruct_evolution(traj))
        assert rep.max_deviation.shape == (1,)
        assert rep.max_deviation[0] < 1e-6

    def test_wrong_damping_sign_detected(self):
        j = 2.0
        traj = scenario_example3(j, GAMMA).joint(0.0, 1e-3, 1001)
        frame = eigenframe_decompose(traj)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])
        rep = roundtrip_verify(traj, h, [k_from_d(-choice2_rates())], frame.useq)
        assert rep.max_deviation[0] > 0.05

    def test_odd_interval_count_uses_half_grid(self):
        # 401 intervals: the RK4 midpoints fall between samples, so the
        # round trip steps dt on the half grid of the continuation
        j = 2.0
        traj = scenario_example3(j, GAMMA).joint(0.0, 2.0 / 401, 402)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])
        rep = roundtrip_verify(traj, h, [k_from_d(choice2_rates())], eigenframe_decompose(traj).useq)
        assert rep.max_deviation[0] < 1e-4


@settings(deadline=None, max_examples=40)
@given(c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_rk4_matches_per_state_oracle(c, seed):
    r = np.random.default_rng(seed)
    dt, n_steps = 0.02, 8
    # U on the half-spaced grid, so that the RK4 midpoints are samples
    z = r.normal(size=(2 * n_steps, 4, 4)) + 1j * r.normal(size=(2 * n_steps, 4, 4))
    u = np.concatenate([np.eye(4)[np.newaxis], np.linalg.qr(z)[0]])
    useq = EvolutionSequence(0.0, dt / 2, u)
    hs = np.array([random_hermitian(r) for _ in range(c)])
    a = r.normal(size=(c, 15, 15)) + 1j * r.normal(size=(c, 15, 15))
    ks = [KossakowskiMatrix(0.005 * aj @ aj.conj().T) for aj in a]
    # any matrices: non-Hermitian, with unequal traces, so that every
    # state has its own trace and Hermiticity drift
    rho0 = r.normal(size=(c, 4, 4)) + 1j * r.normal(size=(c, 4, 4))
    # the generator of state j at grid time i: -i[h_j, .] + U_i Diss_Kj[U_i^dag . U_i] U_i^dag
    eye = np.eye(4)
    lh = -1j * (np.kron(hs, eye) - np.kron(eye, hs.swapaxes(1, 2)))
    gen = _lab_frame(np.stack([k.liouvillian for k in ks]), useq.u) + lh

    def stacked(t, rho):
        return (gen[_grid_index(useq, t)] @ rho.reshape(c, 16, 1)).reshape(c, 4, 4)

    def single(j):
        return lambda t, rho: (gen[_grid_index(useq, t), j] @ rho.reshape(16)).reshape(4, 4)

    res = rk4_integrate(stacked, rho0, 0.0, dt, n_steps)
    assert res.samples.shape == (n_steps + 1, c, 4, 4)
    assert np.shape(res.max_trace_drift) == np.shape(res.max_hermiticity_drift) == (c,)
    for j in range(c):
        samples, trace_drift, herm_drift = rk4_per_state(single(j), rho0[j], 0.0, dt, n_steps)
        np.testing.assert_allclose(res.samples[:, j], samples, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.trace_drift[:, j], trace_drift, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.hermiticity_drift[:, j], herm_drift, rtol=0, atol=1e-14)
        assert res.max_trace_drift[j] == pytest.approx(trace_drift.max(), rel=0, abs=1e-14)
        assert res.max_hermiticity_drift[j] == pytest.approx(herm_drift.max(), rel=0, abs=1e-14)

    traj = Trajectory(0.0, dt / 2, np.array([random_state(r) for _ in range(2 * n_steps + 1)]))
    # 2 n_steps intervals: roundtrip_verify steps dt, with midpoints on useq
    rep = roundtrip_verify(traj, hs[0], ks, useq)
    for j in range(c):
        one = roundtrip_verify(traj, hs[0], [ks[j]], useq)
        for name in ("max_deviation", "max_marginal_a", "max_marginal_b", "trace_drift"):
            assert np.shape(getattr(rep, name)) == (c,)
            assert getattr(rep, name)[j] == pytest.approx(getattr(one, name)[0], rel=0, abs=1e-14)


def _per_term_matrix(km):
    """16x16 matrix of dissipator_per_term on row-major vectorized X, one
    column per unit matrix: no Kronecker identity, which S(t) relies on."""
    units = np.eye(16).reshape(16, 4, 4)
    return np.array([dissipator_per_term(km, e).reshape(16) for e in units]).T


def _lab_frame_oracle(h, km, u, t0, step):
    """-i[h, rho] + U Diss_K[U^dag rho U] U^dag in 4x4 products, with U
    read from u, which is sampled every step / 2 from t0."""
    dmat = _per_term_matrix(km)

    def rhs(t, rho):
        v = u[int(round(2 * (t - t0) / step))]
        inner = (dmat @ (v.conj().T @ rho @ v).reshape(16)).reshape(4, 4)
        return -1j * (h @ rho - rho @ h) + v @ inner @ v.conj().T

    return rhs


# RK4 steps per block of states that roundtrip_verify compares with the samples
_STEPS = _BLOCK // 2


@settings(deadline=None, max_examples=20)
@given(
    c=st.integers(1, 4),
    odd=st.booleans(),
    steps=st.one_of(
        st.sampled_from([_STEPS - 1, _STEPS, _STEPS + 1, 2 * _STEPS - 1, 2 * _STEPS, 2 * _STEPS + 1]),
        st.integers(1, 3 * _STEPS),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(c=4, odd=False, steps=_STEPS, seed=0)  # exactly one comparison block
@example(c=3, odd=True, steps=_STEPS + 1, seed=1)  # one step more
@example(c=2, odd=True, steps=_STEPS - 1, seed=2)  # one step less
@example(c=1, odd=False, steps=1, seed=3)  # fewer steps than a block: 3 samples
def test_roundtrip_matches_lab_frame_oracle(c, odd, steps, seed):
    r = np.random.default_rng(seed)
    # an odd interval count steps dt, so it needs an odd step count, and
    # one step would be a 2-sample trajectory
    odd = odd and steps % 2 == 1 and steps > 1
    intervals = steps if odd else 2 * steps
    t0, dt = r.uniform(-1.0, 1.0), 1.0 / intervals
    z = r.normal(size=(intervals, 4, 4)) + 1j * r.normal(size=(intervals, 4, 4))
    useq = EvolutionSequence(t0, dt, np.concatenate([np.eye(4)[np.newaxis], np.linalg.qr(z)[0]]))
    # an odd count reads U on the half grid, which has its own test
    u = useq.half_grid().u if odd else useq.u
    # the RK4 reads U at 2 * steps + 1 grid times, up to three blocks of
    # lab-frame Liouvillians
    assert len(u) == 2 * steps + 1
    h = random_hermitian(r)
    a = r.normal(size=(c, 15, 15)) + 1j * r.normal(size=(c, 15, 15))
    kms = 0.01 * a @ a.conj().swapaxes(1, 2)
    rho0 = random_state(r)
    # a constant trajectory, so that the deviation is the excursion from rho0
    traj = Trajectory(t0, dt, np.broadcast_to(rho0, (intervals + 1, 4, 4)))
    rep = roundtrip_verify(traj, h, [KossakowskiMatrix(km) for km in kms], useq)
    step = dt if odd else 2 * dt
    for j, km in enumerate(kms):
        samples, _, _ = rk4_per_state(_lab_frame_oracle(h, km, u, t0, step), rho0, t0, step, steps)
        diff = (samples - rho0).reshape(-1, 2, 2, 2, 2)
        assert rep.max_deviation[j] == pytest.approx(
            np.linalg.norm(diff.reshape(-1, 16), axis=1).max(), rel=1e-12
        )
        assert rep.max_marginal_a[j] == pytest.approx(
            np.abs(np.einsum("tabcb->tac", diff)).max(), rel=1e-12
        )
        assert rep.max_marginal_b[j] == pytest.approx(
            np.abs(np.einsum("tabad->tbd", diff)).max(), rel=1e-12
        )


def test_roundtrip_memory_does_not_grow_with_n():
    # the states are compared with the samples one block at a time, so the
    # traced peak of four candidates is the same at 4 and 16 blocks
    def traced_peak(intervals):
        r = np.random.default_rng(intervals)
        z = r.normal(size=(intervals, 4, 4)) + 1j * r.normal(size=(intervals, 4, 4))
        useq = EvolutionSequence(0.0, 1.0 / intervals, np.concatenate([np.eye(4)[np.newaxis], np.linalg.qr(z)[0]]))
        traj = Trajectory(0.0, 1.0 / intervals, np.broadcast_to(random_state(r), (intervals + 1, 4, 4)))
        ks = [KossakowskiMatrix(0.01 * np.eye(15))] * 4
        tracemalloc.start()
        try:
            roundtrip_verify(traj, random_hermitian(r), ks, useq)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(16 * _BLOCK) <= 1.02 * traced_peak(4 * _BLOCK)


def test_affine_generator_validation():
    with pytest.raises(ValueError):
        AffineGenerator(np.full((15, 15), np.nan), np.zeros(15))
    gen = AffineGenerator(np.zeros((15, 15)), np.zeros(15))
    assert gen.unital


def test_kossakowski_requires_hermitian():
    with pytest.raises(ValueError):
        KossakowskiMatrix(np.triu(np.ones((15, 15))))
