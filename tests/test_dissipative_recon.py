import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm
from scipy.optimize import nnls

from qmp.bloch import traceless_basis
from qmp.kinematics import scenario_example1, scenario_example3
from qmp.qcore import Trajectory, rk4_integrate
from qmp.unitary_recon import EvolutionSequence, eigenframe_decompose, reconstruct_evolution
from qmp import dissipative_recon
from qmp.dissipative_recon import (
    _DIAGONAL_COHERENCE,
    _STEPS,
    _cumulative_trapezoid,
    _expm,
    _nnls,
    AffineGenerator,
    KossakowskiMatrix,
    anticommutation_table,
    candidate_diagonals,
    cp_check,
    d_from_k,
    fit_diagonal_unital,
    hamiltonian_action,
    integrated_cp_check,
    k_from_d,
    roundtrip_verify,
)

from _oracles import (
    affine_from_superoperator,
    coherence_vector,
    diagonal_rate_fit,
    diagonal_rate_misfit,
    dissipator_per_term,
    dissipator_superoperator,
    interaction_picture_states,
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
        r = coherence_vector(rho)
        rhodot = -1j * (h @ rho - rho @ h)
        g = traceless_basis()
        rdot = np.einsum("kij,ji->k", g, rhodot).real
        np.testing.assert_allclose(m @ r, rdot, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hamiltonian_action(np.triu(np.ones((4, 4))))


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
        # the fit reads r = einsum("ni,ik->nk", branches, _DIAGONAL_COHERENCE),
        # the coherence vector of the diagonal states diag(branches)
        want = np.array([coherence_vector(np.diag(b)) for b in branches])
        r = np.einsum("ni,ik->nk", branches, _DIAGONAL_COHERENCE)
        np.testing.assert_allclose(r, want, rtol=0, atol=1e-15)

    def test_fit_matches_per_component_least_squares(self):
        # 12001 samples, a series long enough that a threaded BLAS would split
        # its sums; the oracle's sums are exact up to the final rounding. The
        # constant component 3 has a zero rate, known only to the rounding of
        # its r_dot, so the tolerance is relative to the largest rate
        traj = scenario_example3(2.0, GAMMA).joint(0.0, 2.0 / 12000, 12001)
        branches = eigenframe_decompose(traj).branches
        fit = fit_diagonal_unital(branches, traj.dt)
        rates, residual = diagonal_rate_fit(branches, traj.dt)
        np.testing.assert_allclose(fit.d_diag, rates, rtol=0, atol=1e-13 * np.abs(rates).max())
        assert fit.residual == pytest.approx(residual, rel=0, abs=1e-12)

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
        assert np.abs(gen.l).max() < 1e-12

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
        if np.abs(gen.l).max() < 1e-12:
            np.testing.assert_allclose(out, 0, atol=1e-12)

    def test_psd_k_preserves_positivity(self):
        a = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        km = KossakowskiMatrix(0.02 * (a @ a.conj().T))
        h = random_hermitian(rng)

        def rhs(t, rho):
            return -1j * (h @ rho - rho @ h) + dissipate(km, rho)

        for _ in range(5):
            res = rk4_integrate(rhs, random_state(rng), 0.0, 1e-2, 300)
            w = np.linalg.eigvalsh(res.samples[-1])
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


def amplitude_damping_k(gamma=GAMMA):
    """K of the one jump sigma^- (x) I = sum_i c_i G_i at rate gamma:
    K_ij = gamma c_i conj(c_j)."""
    low = np.kron([[0, 1], [0, 0]], np.eye(2))
    c = np.einsum("kab,ba->k", traceless_basis(), low) / 4.0
    return KossakowskiMatrix(gamma * np.outer(c, c.conj()))


class TestExpm:
    def test_defective_jordan_block(self):
        # lambda I + N with N the shift has one eigenvector, so no
        # eigendecomposition gives e^a; the larger scale takes squarings
        for scale in (1.0, 20.0):
            a = scale * ((-0.7 + 2.0j) * np.eye(6) + 3.0 * np.eye(6, k=1))
            want = expm(a)
            assert np.abs(_expm(a) - want).max() <= 1e-12 * np.abs(want).max(), scale

    def test_amplitude_damping_liouvillian(self):
        k = amplitude_damping_k()
        lk, s = k.liouvillian, dissipator_superoperator(k.k)
        for t in (1e-3, 1.0, 50.0):
            np.testing.assert_allclose(_expm(t * lk), expm(t * s), rtol=0, atol=1e-13)


class TestRotateAndRoundtrip:
    def test_identity_sequence_is_direct_application(self):
        # H = 0 makes W = I exactly, so the round trip applies e^{t L_K}
        # directly: for choice 2, the bit flip (gamma / 2)(X rho X - rho) on
        # A, rho(t) = rho0 + (1 - e^{-gamma t}) / 2 (X rho0 X - rho0) at any
        # step, on even and odd interval counts
        x = np.kron([[0, 1], [1, 0]], np.eye(2))
        rho0 = random_state(rng)
        for n in (8, 9):
            t = 0.5 * np.arange(n)[:, np.newaxis, np.newaxis]
            traj = Trajectory(0.0, 0.5, rho0 + 0.5 * (1 - np.exp(-GAMMA * t)) * (x @ rho0 @ x - rho0))
            useq = EvolutionSequence(0.0, 0.5, np.broadcast_to(np.eye(4), (n, 4, 4)))
            rep = roundtrip_verify(traj, np.zeros((4, 4)), [k_from_d(choice2_rates())], useq)
            assert rep.max_deviation[0] < 1e-14, n
            assert rep.propagator_defect == 0.0

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

    def test_odd_interval_count_ends_with_a_dt_step(self):
        # 401 intervals: 200 RK4 steps of 2 dt, then one of dt whose
        # midpoint falls between the last two samples
        j = 2.0
        traj = scenario_example3(j, GAMMA).joint(0.0, 2.0 / 401, 402)
        g = traceless_basis()
        h = (3 * j / 8) * (g[4] - g[9])
        rep = roundtrip_verify(traj, h, [k_from_d(choice2_rates())], eigenframe_decompose(traj).useq)
        assert rep.max_deviation[0] < 1e-4


def random_unitaries(r, n):
    """n unitaries on a grid, the identity first and random ones after."""
    z = r.normal(size=(n - 1, 4, 4)) + 1j * r.normal(size=(n - 1, 4, 4))
    return np.concatenate([np.eye(4)[np.newaxis], np.linalg.qr(z)[0]])


@settings(deadline=None, max_examples=40)
@given(c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_rk4_matches_per_state_oracle(c, seed):
    r = np.random.default_rng(seed)
    dt, n_steps = 0.02, 8
    # U on the half-spaced grid, so that the RK4 midpoints are samples
    u = random_unitaries(r, 2 * n_steps + 1)
    useq = EvolutionSequence(0.0, dt / 2, u)
    hs = np.array([random_hermitian(r) for _ in range(c)])
    a = r.normal(size=(c, 15, 15)) + 1j * r.normal(size=(c, 15, 15))
    ks = [KossakowskiMatrix(0.005 * aj @ aj.conj().T) for aj in a]
    # any matrices: non-Hermitian, with unequal traces, so that every
    # state has its own trace and Hermiticity drift
    rho0 = r.normal(size=(c, 4, 4)) + 1j * r.normal(size=(c, 4, 4))
    # the generator of state j at grid time i: -i[h_j, .] + U_i Diss_Kj[U_i^dag . U_i] U_i^dag,
    # through vec(U X U^dag) = S vec(X) with S = U kron conj(U)
    eye = np.eye(4)
    lh = -1j * (np.kron(hs, eye) - np.kron(eye, hs.swapaxes(1, 2)))
    s = np.einsum("nab,ncd->nacbd", u, u.conj()).reshape(-1, 1, 16, 16)
    gen = s @ np.stack([k.liouvillian for k in ks]) @ s.conj().swapaxes(-1, -2) + lh

    def at(t):  # the index of time t on the grid of useq
        return int(round(2 * t / dt))

    def stacked(t, rho):
        return (gen[at(t)] @ rho.reshape(c, 16, 1)).reshape(c, 4, 4)

    def single(j):
        return lambda t, rho: (gen[at(t), j] @ rho.reshape(16)).reshape(4, 4)

    res = rk4_integrate(stacked, rho0, 0.0, dt, n_steps)
    assert res.samples.shape == (n_steps + 1, c, 4, 4)
    assert res.trace_drift.shape == (n_steps + 1, c)
    for j in range(c):
        samples, trace_drift = rk4_per_state(single(j), rho0[j], 0.0, dt, n_steps)
        np.testing.assert_allclose(res.samples[:, j], samples, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.trace_drift[:, j], trace_drift, rtol=0, atol=1e-14)
        assert res.trace_drift.max(axis=0)[j] == pytest.approx(trace_drift.max(), rel=0, abs=1e-14)

    traj = Trajectory(0.0, dt / 2, np.array([random_state(r) for _ in range(2 * n_steps + 1)]))
    # the candidates share one W, so each gets the values of its own run
    rep = roundtrip_verify(traj, hs[0], ks, useq)
    for j in range(c):
        one = roundtrip_verify(traj, hs[0], [ks[j]], useq)
        for name in ("max_deviation", "max_marginal_a", "max_marginal_b"):
            assert np.shape(getattr(rep, name)) == (c,)
            assert getattr(rep, name)[j] == pytest.approx(getattr(one, name)[0], rel=0, abs=1e-14)
        assert rep.propagator_defect == one.propagator_defect


@settings(deadline=None, max_examples=25)
@given(c=st.integers(1, 3), intervals=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(c=1, intervals=2, seed=0)  # 3 samples: one step of 2 dt
@example(c=2, intervals=3, seed=1)  # one step of 2 dt, then the tail step of dt
@example(c=3, intervals=40, seed=2)
@example(c=3, intervals=39, seed=3)
def test_roundtrip_matches_interaction_picture_oracle(c, intervals, seed):
    # H(t) = H0 + sin(omega t) H1 and PSD K: the states are
    # W e^{t L_K}[rho0] W^dag, W from the stride rule's RK4 of H's samples
    r = np.random.default_rng(seed)
    t0, dt = r.uniform(-1.0, 1.0), r.uniform(0.01, 0.1)
    h0, h1, omega = random_hermitian(r), random_hermitian(r), r.uniform(0.5, 5.0)
    h = h0 + np.sin(omega * (t0 + dt * np.arange(intervals + 1)))[:, None, None] * h1
    a = r.normal(size=(c, 15, 15)) + 1j * r.normal(size=(c, 15, 15))
    kms = 0.05 * a @ a.conj().swapaxes(1, 2)
    useq = EvolutionSequence(t0, dt, random_unitaries(r, intervals + 1))
    rho0 = random_state(r)
    # a constant trajectory, so that the deviation is the excursion from rho0
    traj = Trajectory(t0, dt, np.broadcast_to(rho0, (intervals + 1, 4, 4)))
    rep = roundtrip_verify(traj, h, [KossakowskiMatrix(km) for km in kms], useq)
    reached = list(range(2, intervals + 1, 2)) + ([intervals] if intervals % 2 else [])
    for j, km in enumerate(kms):
        states, ws = interaction_picture_states(h, km, rho0, dt)
        assert len(states) == len(reached) + 1
        diff = (states[1:] - rho0).reshape(-1, 2, 2, 2, 2)
        assert rep.max_deviation[j] == pytest.approx(
            np.linalg.norm(diff.reshape(-1, 16), axis=1).max(), rel=1e-10
        )
        assert rep.max_marginal_a[j] == pytest.approx(
            np.abs(np.einsum("tabcb->tac", diff)).max(), rel=1e-10
        )
        assert rep.max_marginal_b[j] == pytest.approx(
            np.abs(np.einsum("tabad->tbd", diff)).max(), rel=1e-10
        )
    defect = np.linalg.norm(ws[1:] - useq.u[reached], 2, axis=(1, 2)).max()
    assert rep.propagator_defect == pytest.approx(defect, rel=1e-10)


@pytest.mark.parametrize("intervals", [3, 7])
def test_tail_midpoint_is_mean_of_last_two_samples(intervals):
    # for H(t) linear in t, the mean of the last two samples is H at the
    # tail step's midpoint, so the round trip must meet samples made by RK4
    # of H(t) itself and by scipy's e^{t L_K}
    r = np.random.default_rng(intervals)
    h0, h1 = random_hermitian(r), random_hermitian(r)
    t0, dt = 0.3, 0.05

    def h_at(t):
        return h0 + (t - t0) * h1

    def w_from(w, t, step, n):
        return rk4_per_state(lambda s, x: -1j * h_at(s) @ x, w, t, step, n)[0]

    a = r.normal(size=(15, 15)) + 1j * r.normal(size=(15, 15))
    km = 0.01 * a @ a.conj().T
    rho0 = random_state(r)

    def model(w, t):
        frame = expm((t - t0) * dissipator_superoperator(km)) @ rho0.reshape(16)
        return w @ frame.reshape(4, 4) @ w.conj().T

    ws = w_from(np.eye(4, dtype=complex), t0, 2 * dt, intervals // 2)
    tail = w_from(ws[-1], t0 + (intervals - 1) * dt, dt, 1)[-1]
    samples = np.empty((intervals + 1, 4, 4), dtype=complex)
    # the odd samples before the last one are not compared
    samples[::2] = [model(w, t0 + 2 * i * dt) for i, w in enumerate(ws)]
    samples[1::2] = rho0
    samples[-1] = model(tail, t0 + intervals * dt)
    h = np.array([h_at(t0 + i * dt) for i in range(intervals + 1)])
    useq = EvolutionSequence(t0, dt, np.broadcast_to(np.eye(4), (intervals + 1, 4, 4)))
    rep = roundtrip_verify(Trajectory(t0, dt, samples), h, [KossakowskiMatrix(km)], useq)
    assert rep.max_deviation[0] < 1e-13
    # the tail step's state is compared with the last sample
    samples[-1] = samples[-2 if intervals % 2 == 0 else -3]
    rep = roundtrip_verify(Trajectory(t0, dt, samples), h, [KossakowskiMatrix(km)], useq)
    want = np.linalg.norm(model(tail, t0 + intervals * dt) - samples[-1])
    assert rep.max_deviation[0] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("intervals", [2, 3, 5, 6, 7, 12, 13])
def test_chunks_give_the_values_of_one_chunk(monkeypatch, steps, intervals):
    # _STEPS steps at a time, at sizes that split the steps and the tail step
    # over chunks in every way
    r = np.random.default_rng(100 * steps + intervals)
    h = np.array([random_hermitian(r) for _ in range(intervals + 1)])
    a = r.normal(size=(2, 15, 15)) + 1j * r.normal(size=(2, 15, 15))
    ks = [KossakowskiMatrix(0.05 * aj @ aj.conj().T) for aj in a]
    traj = Trajectory(0.0, 0.05, np.array([random_state(r) for _ in range(intervals + 1)]))
    useq = EvolutionSequence(0.0, 0.05, random_unitaries(r, intervals + 1))
    whole = roundtrip_verify(traj, h, ks, useq)
    monkeypatch.setattr(dissipative_recon, "_STEPS", steps)
    chunked = roundtrip_verify(traj, h, ks, useq)
    for name in ("max_deviation", "max_marginal_a", "max_marginal_b", "propagator_defect"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


def test_roundtrip_memory_does_not_grow_with_n():
    # the states are compared with the samples _STEPS steps at a time, so
    # the traced peak of four candidates is the same at 4 and 16 chunks, on
    # even and odd interval counts
    def traced_peak(intervals):
        r = np.random.default_rng(intervals)
        n = intervals + 1
        h = np.broadcast_to(random_hermitian(r), (n, 4, 4))
        useq = EvolutionSequence(0.0, 1.0 / intervals, np.broadcast_to(np.eye(4), (n, 4, 4)))
        traj = Trajectory(0.0, 1.0 / intervals, np.broadcast_to(random_state(r), (n, 4, 4)))
        ks = [KossakowskiMatrix(0.01 * np.eye(15))] * 4
        tracemalloc.start()
        try:
            roundtrip_verify(traj, h, ks, useq)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(2 * 16 * _STEPS) <= 1.02 * traced_peak(2 * 4 * _STEPS)
    assert traced_peak(2 * 16 * _STEPS + 1) <= 1.02 * traced_peak(2 * 4 * _STEPS + 1)


@pytest.mark.parametrize("steps", [1, 7, 40, 41, 256])
def test_roundtrip_names_the_diverging_step(monkeypatch, steps):
    # a NaN in H at sample 2 * 40 + 1, the midpoint of step 41 of W; step 41
    # is alone in its chunk, mid-chunk, or a chunk's first or last step
    monkeypatch.setattr(dissipative_recon, "_STEPS", steps)
    r = np.random.default_rng(160)
    h = np.array([random_hermitian(r)] * 161)
    h[2 * 40 + 1, 1, 2] = np.nan
    traj = Trajectory(0.0, 1.0 / 160, np.broadcast_to(random_state(r), (161, 4, 4)))
    useq = EvolutionSequence(0.0, 1.0 / 160, np.broadcast_to(np.eye(4), (161, 4, 4)))
    ks = [KossakowskiMatrix(0.01 * np.eye(15))] * 2
    with pytest.raises(RuntimeError, match="in step 41$"):
        roundtrip_verify(traj, h, ks, useq)


def test_roundtrip_names_its_tail_step():
    # 3 intervals: one step of 2 dt over samples 0 to 2, then the tail step
    # of dt, the only one that reads the last sample, whose H overflows W
    r = np.random.default_rng(3)
    h = np.zeros((4, 4, 4), dtype=complex)
    h[-1] = 1e300 * np.eye(4)
    traj = Trajectory(0.0, 1.0 / 3, np.broadcast_to(random_state(r), (4, 4, 4)))
    useq = EvolutionSequence(0.0, 1.0 / 3, np.array([np.eye(4, dtype=complex)] * 4))
    with pytest.raises(RuntimeError, match="in step 2$"):
        roundtrip_verify(traj, h, [k_from_d(choice2_rates())], useq)


def test_propagator_keeps_its_rounding_over_10000_steps():
    # constant H with ||H|| = 1, so U = e^{-i H t} is exact from eigh and
    # RK4's own error is far below rounding: the defect is W's rounding,
    # which the increment form W_{k-1} + (P_k - I) W_{k-1} keeps near 1e-14
    # (the plain product P_k W_{k-1} drifts to about 4e-13)
    r = np.random.default_rng(20001)
    h = random_hermitian(r)
    h /= np.linalg.norm(h, 2)
    n, dt = 20001, 1e-4
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * np.arange(n)[:, np.newaxis] * w)
    useq = EvolutionSequence(0.0, dt, (v * phases[:, np.newaxis, :]) @ v.conj().T)
    traj = Trajectory(0.0, dt, np.broadcast_to(random_state(r), (n, 4, 4)))
    rep = roundtrip_verify(traj, h, [KossakowskiMatrix(np.zeros((15, 15)))], useq)
    assert rep.propagator_defect < 5e-14


def test_affine_generator_validation():
    with pytest.raises(ValueError):
        AffineGenerator(np.full((15, 15), np.nan), np.zeros(15))
    gen = AffineGenerator(np.zeros((15, 15)), np.zeros(15))
    assert np.abs(gen.l).max() < 1e-12


def test_kossakowski_requires_hermitian():
    with pytest.raises(ValueError):
        KossakowskiMatrix(np.triu(np.ones((15, 15))))
