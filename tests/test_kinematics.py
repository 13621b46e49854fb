import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmp import kinematics
from qmp.kinematics import (
    MarginalPair,
    isospectral_test,
    scenario_example1,
    scenario_example2,
    scenario_example3,
    unitarity_test,
    unitary_window,
)
from qmp.qcore import SIGMA, Trajectory, partial_trace


class TestUnitarityTest:
    def test_unitary_trajectory_passes(self):
        traj = scenario_example1(2.0).joint(0.0, 0.02, 100)
        rep = unitarity_test(traj)
        assert rep.passed
        assert max(rep.drift.values()) < 1e-14

    def test_dissipative_trajectory_fails(self):
        traj = scenario_example3(2.0, 0.2).joint(0.0, 0.05, 100)
        rep = unitarity_test(traj)
        assert not rep.passed
        assert rep.drift[2] > 0.1

    def test_powers_run_to_the_dimension(self):
        ex1 = scenario_example1(2.0)
        assert sorted(unitarity_test(ex1.marginals(0.0, 0.05, 10).rho_a).drift) == [2]
        assert sorted(unitarity_test(ex1.joint(0.0, 0.05, 10)).drift) == [2, 3, 4]
        big = Trajectory(0.0, 0.1, np.array([np.eye(8, dtype=complex) / 8] * 3))
        with pytest.raises(ValueError, match="dim 8"):
            unitarity_test(big)

    def test_drift_matches_per_power_products(self):
        traj = scenario_example3(2.0, 0.2).joint(0.0, 0.05, 100)
        rho = traj.samples
        for k, drift in unitarity_test(traj).drift.items():
            t = np.trace(functools.reduce(np.matmul, [rho] * k), axis1=1, axis2=2).real
            assert drift == np.max(np.abs(t - t[0]))

    def test_every_power_checks_its_imaginary_part(self):
        # the fourth roots of 0.1i: Tr rho^k = 0 for k = 2, 3 and Tr rho^4 = 0.4i
        roots = (0.1j) ** 0.25 * 1j ** np.arange(4)
        traj = Trajectory(0.0, 0.1, np.array([np.diag(roots)] * 3))
        with pytest.raises(ValueError, match="imaginary part 0.4"):
            unitarity_test(traj)


class TestIsospectral:
    def test_marginals_of_oscillating_state(self):
        pair = scenario_example1(2.0).marginals(0.0, 0.05, 60)
        rep = isospectral_test(pair)
        assert rep.isospectral

    def test_out_of_phase_marginals_are_not(self):
        pair = scenario_example2(1.0).marginals(0.0, np.pi / 200, 201)
        rep = isospectral_test(pair)
        assert not rep.isospectral
        assert rep.max_distance == pytest.approx(0.5, abs=1e-6)

    def test_distance_matches_eigvalsh_oracle(self):
        pair = scenario_example2(1.0).marginals(0.0, np.pi / 2000, 2001)
        oracle = np.linalg.eigvalsh(pair.rho_a.samples) - np.linalg.eigvalsh(pair.rho_b.samples)
        dist = isospectral_test(pair).max_distance
        assert dist == pytest.approx(np.abs(oracle).max(), rel=0, abs=1e-15)

    def test_non_hermitian_marginal_rejected(self):
        pair = scenario_example1(2.0).marginals(0.0, 0.05, 10)
        skew = pair.rho_a.samples.copy()
        skew[4, 0, 1] += 0.1
        with pytest.raises(ValueError, match="MarginalPair expects a Hermitian"):
            isospectral_test(MarginalPair(Trajectory(0.0, 0.05, skew), pair.rho_b))


def test_pair_tests_share_one_bloch_pass_per_marginal(monkeypatch):
    # check A B runs both tests on one pair: each marginal's Hermiticity
    # check and Bloch vectors are computed once
    checked = []
    require = kinematics._require_hermitian
    monkeypatch.setattr(
        kinematics, "_require_hermitian", lambda a, caller: checked.append(a) or require(a, caller)
    )
    pair = scenario_example2(1.0).marginals(0.0, np.pi / 200, 201)
    iso, win = isospectral_test(pair), unitary_window(pair)
    assert [id(a) for a in checked] == [id(pair.rho_a.samples), id(pair.rho_b.samples)]
    fresh = scenario_example2(1.0).marginals(0.0, np.pi / 200, 201)
    assert (iso, win) == (isospectral_test(fresh), unitary_window(MarginalPair(fresh.rho_a, fresh.rho_b)))


class TestWindow:
    def test_nonexistence_constants(self):
        pair = scenario_example2(1.0).marginals(0.0, np.pi / 1000, 1001)
        w = unitary_window(pair)
        assert not w.exists
        assert w.c_lo == pytest.approx(1 / np.sqrt(2), abs=1e-7)
        assert w.c_hi == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-7)

    def test_compatible_marginals_have_window(self):
        pair = scenario_example1(2.0).marginals(0.0, np.pi / 500, 501)
        w = unitary_window(pair)
        assert w.exists
        assert w.c_lo == pytest.approx(1 / 8, abs=1e-6)
        assert w.c_hi == pytest.approx(1.0, abs=1e-9)

    def test_rotating_marginal_has_static_window(self):
        # the eigenbasis turns at unit rate; the spectrum stays (0.75, 0.25)
        ts = 0.05 * np.arange(60)
        samples = np.array(
            [
                0.5 * np.eye(2)
                + 0.25 * np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]])
                for t in ts
            ],
            dtype=complex,
        )
        moving = Trajectory(0.0, 0.05, samples)
        static = Trajectory(0.0, 0.05, np.array([np.diag([0.75, 0.25])] * 60, dtype=complex))
        w = unitary_window(MarginalPair(moving, static))
        w0 = unitary_window(MarginalPair(static, static))
        assert abs(w.c_lo - w0.c_lo) < 1e-12 and abs(w.c_hi - w0.c_hi) < 1e-12

    @pytest.mark.parametrize("turn", [0.0, 0.7], ids=["fixed", "moving"])
    def test_crossing_on_a_sample_keeps_its_label(self, turn):
        # alpha = 0.5 - t is exactly 0 at t = 0.5, so |r| = 0 there; past it,
        # branch 0 is the smaller one. A fixed beta = 0.3 gives the window
        # [max|alpha + beta|/2, 1 - max|alpha - beta|/2] = [0.4, 0.6625];
        # a label that stayed on the larger branch would give c_hi = 0.9
        ts = 0.125 * np.arange(8)
        a = _moving(_branch_states(0.5 - ts), turn * ts, np.array([1.0, 0.0, 0.0]))
        b = _branch_states(np.full(8, 0.3))
        w = unitary_window(MarginalPair(Trajectory(0.0, 0.125, a), Trajectory(0.0, 0.125, b)))
        assert abs(w.c_lo - 0.4) < 1e-12 and abs(w.c_hi - 0.6625) < 1e-12

    def test_non_hermitian_marginal_rejected(self):
        pair = scenario_example1(2.0).marginals(0.0, 0.05, 20)
        skew = pair.rho_a.samples + np.array([[0, 1e-3], [0, 0]])
        with pytest.raises(ValueError, match="Hermitian"):
            unitary_window(MarginalPair(Trajectory(0.0, 0.05, skew), pair.rho_b))

    def test_tied_peaks_keep_the_first_reference(self):
        # A's branch gap peaks at +1/8 (t = 0, 2 pi) and -1/8 (t = pi, 3 pi);
        # in a moving frame rounding must not move the reference to a later peak
        pair = scenario_example1(1.0).marginals(0.0, 3 * np.pi / 2000, 2001)
        a = pair.rho_a
        turned = _moving(a.samples, 0.9 * a.times, np.array([1.0, 0.0, 0.0]))
        w = unitary_window(MarginalPair(Trajectory(a.t0, a.dt, turned), pair.rho_b))
        assert abs(w.c_lo - 0.125) < 1e-12 and abs(w.c_hi - 1.0) < 1e-12


def _branch_states(alpha):
    """diag((1 + alpha)/2, (1 - alpha)/2) at every time."""
    rho = np.zeros((len(alpha), 2, 2), dtype=complex)
    rho[:, 0, 0], rho[:, 1, 1] = (1 + alpha) / 2, (1 - alpha) / 2
    return rho


def _moving(rho, theta, axis):
    """F rho F^dag with F(t) = exp(-i theta(t) axis.sigma)."""
    n_sigma = np.einsum("k,kij->ij", axis, SIGMA[1:])
    f = np.cos(theta)[:, None, None] * np.eye(2) - 1j * np.sin(theta)[:, None, None] * n_sigma
    return f @ rho @ np.conj(np.swapaxes(f, 1, 2))


smooth_branches = st.tuples(
    st.floats(-0.4, 0.4), st.floats(0.0, 0.6), st.floats(0.0, 12.0), st.floats(0.0, 2 * np.pi)
)
smooth_frames = st.tuples(
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(30, 300),
    branches=st.tuples(smooth_branches, smooth_branches),
    frames=st.tuples(smooth_frames, smooth_frames),
)
def test_window_is_independent_of_the_local_frames(n, branches, frames):
    # each marginal is diag((1 + alpha)/2, (1 - alpha)/2) with
    # alpha = a0 + a1 cos(w t + phi), crossings included, turned by
    # F(t) = exp(-i theta(t) n.sigma) with theta = th1 t + th2 t^2
    ts = np.linspace(0.0, 1.0, n)
    static, moving = [], []
    for (a0, a1, w, phi), (th1, th2, axis) in zip(branches, frames):
        alpha = a0 + a1 * np.cos(w * ts + phi)
        static.append(Trajectory(0.0, ts[1], _branch_states(alpha)))
        rho = _moving(_branch_states(alpha), th1 * ts + th2 * ts**2, np.array(axis) / np.linalg.norm(axis))
        moving.append(Trajectory(0.0, ts[1], rho))
    w0 = unitary_window(MarginalPair(*static))
    w = unitary_window(MarginalPair(*moving))
    assert abs(w.c_lo - w0.c_lo) < 1e-12 and abs(w.c_hi - w0.c_hi) < 1e-12


class TestScenarios:
    def test_marginals_are_partial_traces(self):
        for sc in (scenario_example1(1.5), scenario_example3(2.0, 0.3)):
            joint = sc.joint(0.0, 0.1, 30)
            pair = sc.marginals(0.0, 0.1, 30)
            for i in range(30):
                np.testing.assert_allclose(
                    partial_trace(joint.samples[i], "B"), pair.rho_a.samples[i], atol=1e-14
                )
                np.testing.assert_allclose(
                    partial_trace(joint.samples[i], "A"), pair.rho_b.samples[i], atol=1e-14
                )

    def test_all_samples_are_states(self):
        from qmp.qcore import validate_state

        for sc in (scenario_example1(2.0), scenario_example3(2.0, 0.2)):
            for rho in sc.joint(0.0, 0.2, 40).samples:
                assert validate_state(rho).ok

    def test_no_joint_for_out_of_phase_pair(self):
        with pytest.raises(ValueError):
            scenario_example2(1.0).joint(0.0, 0.1, 10)

    def test_dissipation_free_limit_is_pure(self):
        sc = scenario_example3(2.0, 0.0)
        rho = sc.joint_at(1.234)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scenario_example1(0.0)
        with pytest.raises(ValueError):
            scenario_example3(1.0, -0.1)

    def test_grid_mismatch_rejected(self):
        # a step twice as long, in any time unit: femtoseconds too
        for dt in (0.1, 1e-15):
            a = Trajectory(0.0, dt, np.array([np.eye(2) / 2] * 5, dtype=complex))
            b = Trajectory(0.0, 2 * dt, np.array([np.eye(2) / 2] * 5, dtype=complex))
            with pytest.raises(ValueError, match="grids differ"):
                MarginalPair(a, b)


grids = st.tuples(
    st.floats(0.0, 5.0), st.floats(1e-3, 0.2), st.integers(3, 30)
)


@settings(deadline=None, max_examples=60)
@given(
    j=st.floats(0.1, 4.0),
    gamma=st.floats(0.0, 1.0),
    omega=st.floats(0.1, 3.0),
    grid=grids,
)
def test_grid_sampling_equals_scalar_calls(j, gamma, omega, grid):
    t0, dt, n = grid
    ts = t0 + dt * np.arange(n)
    for sc in (scenario_example1(j), scenario_example2(omega), scenario_example3(j, gamma)):
        pair = sc.marginals(t0, dt, n)
        for stack, at in ((pair.rho_a.samples, sc.rho_a_at), (pair.rho_b.samples, sc.rho_b_at)):
            assert stack.tobytes() == np.array([at(t) for t in ts]).tobytes()
        if sc.joint_at is not None:
            joint = sc.joint(t0, dt, n).samples
            assert joint.tobytes() == np.array([sc.joint_at(t) for t in ts]).tobytes()
            assert sc.joint_at(t0).shape == (4, 4)
        assert sc.rho_a_at(t0).shape == (2, 2)


@settings(deadline=None, max_examples=40)
@given(j=st.floats(0.1, 4.0), gamma=st.floats(0.0, 1.0), grid=grids)
def test_joints_are_their_docstring_physics(j, gamma, grid):
    # example3: U_t Gamma(t) U_t^dag, U_t = exp(-i t (3J/8)(s1 s1 - s2 s2));
    # example1: diag(1/4, 5/16, 3/16, 1/4) evolved by -(J/4)(s1 s1 + s2 s2)
    t0, dt, n = grid
    s11, s22 = np.kron(SIGMA[1], SIGMA[1]), np.kron(SIGMA[2], SIGMA[2])
    ex1 = scenario_example1(j).joint(t0, dt, n).samples
    ex3 = scenario_example3(j, gamma).joint(t0, dt, n).samples
    for t, rho1, rho3 in zip(t0 + dt * np.arange(n), ex1, ex3):
        u = expm(1j * t * (j / 4) * (s11 + s22))
        rho0 = np.diag([1 / 4, 5 / 16, 3 / 16, 1 / 4])
        np.testing.assert_allclose(rho1, u @ rho0 @ u.conj().T, rtol=0, atol=1e-13)
        e = np.exp(-gamma * t)
        big_gamma = np.diag([(1 + e) / 2, 0, (1 - e) / 2, 0])
        u = expm(-1j * t * (3 * j / 8) * (s11 - s22))
        np.testing.assert_allclose(rho3, u @ big_gamma @ u.conj().T, rtol=0, atol=1e-13)
