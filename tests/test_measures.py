import numpy as np
import pytest

from qmp.kinematics import scenario_example1, scenario_example3
from qmp.measures import negativity, partial_transpose, purity
from qmp.qcore import spectrum

from _oracles import random_state

rng = np.random.default_rng(1618)


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v).astype(complex)


class TestPurity:
    def test_pure_state(self):
        assert purity(bell_state()) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert purity(np.eye(2) / 2) == pytest.approx(0.5)
        assert purity(np.eye(4) / 4) == pytest.approx(0.25)

    def test_damped_scenario_marginals_start_pure(self):
        from qmp.qcore import partial_trace

        rho = scenario_example3(2.0, 0.2).joint_at(0.0)
        assert purity(partial_trace(rho, "B")) == pytest.approx(1.0)
        assert purity(partial_trace(rho, "A")) == pytest.approx(1.0)

    def test_constant_along_unitary_trajectory(self):
        traj = scenario_example1(2.0).joint(0.0, 0.05, 100)
        ps = [purity(s) for s in traj.samples]
        assert np.ptp(ps) < 1e-8


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho = np.kron(random_state(rng, 2), random_state(rng, 2))
        for sub in ("A", "B"):
            w = spectrum(partial_transpose(rho, sub))
            assert w[0] >= -1e-12

    def test_bell_state_spectrum(self):
        w = spectrum(partial_transpose(bell_state()))
        np.testing.assert_allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_both_sides_isospectral(self):
        rho = random_state(rng)
        wa = spectrum(partial_transpose(rho, "A"))
        wb = spectrum(partial_transpose(rho, "B"))
        np.testing.assert_allclose(wa, wb, atol=1e-12)

    def test_involution(self):
        rho = random_state(rng)
        np.testing.assert_allclose(partial_transpose(partial_transpose(rho)), rho, atol=1e-14)


class TestNegativity:
    def test_product_states(self):
        for _ in range(10):
            rho = np.kron(random_state(rng, 2), random_state(rng, 2))
            assert negativity(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert negativity(bell_state()) == pytest.approx(0.5, abs=1e-12)

    def test_local_unitary_invariance(self):
        from scipy.stats import unitary_group

        rho = random_state(rng)
        n0 = negativity(rho)
        for seed in range(5):
            ua = unitary_group.rvs(2, random_state=seed)
            ub = unitary_group.rvs(2, random_state=seed + 100)
            w = np.kron(ua, ub)
            assert negativity(w @ rho @ w.conj().T) == pytest.approx(n0, abs=1e-10)

    def test_trace_norm_identity(self):
        for _ in range(50):
            rho = random_state(rng)
            n = negativity(rho)
            tn = np.sum(np.abs(spectrum(partial_transpose(rho))))
            assert tn == pytest.approx(1 + 2 * n, abs=1e-10)

    def test_damped_scenario_series(self):
        traj = scenario_example3(2.0, 0.2).joint(0.0, 0.01, 201)
        neg = negativity(traj.samples)
        assert neg[0] == pytest.approx(0.0, abs=1e-12)
        assert neg[1:].max() > 0.05
