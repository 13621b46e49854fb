import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from qmp.bloch import (
    CoherenceVector,
    bloch_invariants,
    correlation_tensor,
    invariants_series,
    pauli_basis,
    pauli_decompose,
    su2_from_so3,
    to_coherence,
    traceless_basis,
    x_form,
)
from qmp.kinematics import scenario_example1, scenario_example3
from qmp.qcore import SIGMA, dag

from _oracles import pauli_sum, random_hermitian, random_state, state_from_coherence

rng = np.random.default_rng(42)


def test_basis_orthogonality():
    g = pauli_basis()
    gram = np.einsum("aij,bji->ab", g, g)
    np.testing.assert_allclose(gram, 4 * np.eye(16), atol=1e-14)


def test_basis_index_map():
    g = pauli_basis()
    for a in range(4):
        for b in range(4):
            np.testing.assert_allclose(g[4 * a + b], np.kron(SIGMA[a], SIGMA[b]))


class TestCoherence:
    def test_round_trip(self):
        for _ in range(20):
            rho = random_state(rng)
            v = to_coherence(rho)
            np.testing.assert_allclose(state_from_coherence(v.x, v.y, v.z), rho, atol=1e-13)

    def test_product_state_components(self):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        v = to_coherence(np.kron(a, b))
        xa = np.array([np.trace(a @ SIGMA[i]).real for i in (1, 2, 3)])
        yb = np.array([np.trace(b @ SIGMA[i]).real for i in (1, 2, 3)])
        np.testing.assert_allclose(v.x, xa, atol=1e-12)
        np.testing.assert_allclose(v.y, yb, atol=1e-12)
        np.testing.assert_allclose(v.z, np.outer(xa, yb), atol=1e-12)

    def test_series_matches_single(self):
        samples = np.array([random_state(rng) for _ in range(5)])
        series = to_coherence(samples)
        for i, s in enumerate(samples):
            one = to_coherence(s)
            for name in ("x", "y", "z"):
                np.testing.assert_allclose(getattr(series, name)[i], getattr(one, name), atol=1e-13)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            to_coherence(np.array([[0, 1], [0, 0]]))


class TestCorrelation:
    def test_vanishes_on_products(self):
        zt = correlation_tensor(np.kron(random_state(rng, 2), random_state(rng, 2)))
        np.testing.assert_allclose(zt, 0, atol=1e-12)

    def test_oscillating_joint_state_structure(self):
        # mixed unitary scenario: z~ has an antisymmetric off-diagonal pair
        t = 0.3
        rho = scenario_example1(2.0).joint_at(t)
        zt = correlation_tensor(rho)
        assert zt[0, 1] == pytest.approx(-np.sin(2 * t) / 8, abs=1e-12)
        assert zt[1, 0] == pytest.approx(np.sin(2 * t) / 8, abs=1e-12)
        assert zt[2, 2] == pytest.approx(np.cos(2 * t) ** 2 / 64, abs=1e-12)


class TestXForm:
    def test_su2_from_so3_covers_rotation(self):
        r = Rotation.random(random_state=7).as_matrix()
        u = su2_from_so3(r)
        np.testing.assert_allclose(u @ dag(u), np.eye(2), atol=1e-12)
        for k in (1, 2, 3):
            lhs = u @ SIGMA[k] @ dag(u)
            rhs = sum(r[j - 1, k - 1] * SIGMA[j] for j in (1, 2, 3))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_diagonalizes_correlation(self):
        for _ in range(10):
            rho = random_state(rng)
            rho_x, ua, ub = x_form(rho)
            zt = correlation_tensor(rho_x)
            np.testing.assert_allclose(zt, np.diag(np.diag(zt)), atol=1e-9)
            w = np.kron(ua, ub)
            np.testing.assert_allclose(w @ rho @ dag(w), rho_x, atol=1e-12)

    def test_spectrum_preserved(self):
        rho = random_state(rng)
        rho_x, _, _ = x_form(rho)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho), np.linalg.eigvalsh(rho_x), atol=1e-12
        )


@settings(deadline=None, max_examples=300)
@given(q=arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)), half_turn=st.booleans())
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), half_turn=True)
@example(q=np.array([0.0, 1.0, 0.0, 0.0]), half_turn=True)
@example(q=np.array([0.0, 0.0, 1.0, 0.0]), half_turn=True)
@example(q=np.array([1.0, 1.0, 1.0, 0.0]), half_turn=True)
@example(q=np.array([0.0, 0.0, 0.0, 1.0]), half_turn=False)
def test_su2_lift_matches_rotation_oracle(q, half_turn):
    q = q.copy()
    if half_turn:
        q[3] = 0.0  # scalar-last quaternion: a rotation by pi
    assume(np.linalg.norm(q) > 1e-3)
    r = Rotation.from_quat(q).as_matrix()
    u = su2_from_so3(r)
    for k in (1, 2, 3):
        rhs = sum(r[j - 1, k - 1] * SIGMA[j] for j in (1, 2, 3))
        np.testing.assert_allclose(u @ SIGMA[k] @ dag(u), rhs, rtol=0, atol=1e-13)
    assert abs(np.linalg.det(u) - 1.0) <= 1e-13
    qx, qy, qz, qw = Rotation.from_matrix(r).as_quat()
    ref = qw * SIGMA[0] - 1j * (qx * SIGMA[1] + qy * SIGMA[2] + qz * SIGMA[3])
    assert min(np.abs(u - ref).max(), np.abs(u + ref).max()) <= 1e-13


@pytest.mark.parametrize(
    "r", [-np.eye(3), np.diag([1.0, 1.0, 1.0 + 1e-8]), np.eye(2), np.full((3, 3), np.nan)],
    ids=["improper", "not-orthogonal", "wrong-shape", "nan"],
)
def test_su2_lift_rejects_non_rotation(r):
    with pytest.raises(ValueError, match="rotation"):
        su2_from_so3(r)


state_factors = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.just(2), st.just(4), st.just(4)),
    elements=st.floats(-1.0, 1.0),
)


@settings(deadline=None, max_examples=60)
@given(a=state_factors)
def test_stack_matches_per_matrix_calls(a):
    z = a[:, 0] + 1j * a[:, 1]
    rho = z @ np.conj(np.swapaxes(z, 1, 2))
    tr = np.trace(rho, axis1=1, axis2=2).real
    assume(np.all(tr > 1e-3))
    rho = rho / tr[:, None, None]
    q = a[:, 0, 0]
    assume(np.all(np.linalg.norm(q, axis=1) > 1e-3))
    rot = Rotation.from_quat(q).as_matrix()

    coh = to_coherence(rho)
    zt = correlation_tensor(rho)
    rho_x, ua, ub = x_form(rho)
    lift = su2_from_so3(rot)
    i1, i2 = bloch_invariants(to_coherence(rho_x))
    for i, r in enumerate(rho):
        one = to_coherence(r)
        for name in ("x", "y", "z"):
            np.testing.assert_allclose(getattr(coh, name)[i], getattr(one, name), rtol=0, atol=1e-13)
        np.testing.assert_allclose(zt[i], correlation_tensor(r), rtol=0, atol=1e-13)
        for stacked, single in zip((rho_x, ua, ub), x_form(r)):
            np.testing.assert_allclose(stacked[i], single, rtol=0, atol=1e-13)
        np.testing.assert_allclose(lift[i], su2_from_so3(rot[i]), rtol=0, atol=1e-13)
        one = bloch_invariants(to_coherence(rho_x[i]))
        assert abs(i1[i] - one[0]) <= 1e-13 and abs(i2[i] - one[1]) <= 1e-13

    # one matrix in: the types callers had before stacks
    v = to_coherence(rho[0])
    assert v.x.shape == v.y.shape == (3,) and v.z.shape == (3, 3)
    assert correlation_tensor(rho[0]).shape == (3, 3)
    assert [m.shape for m in x_form(rho[0])] == [(4, 4), (2, 2), (2, 2)]
    assert su2_from_so3(rot[0]).shape == (2, 2)
    assert all(type(i) is float for i in bloch_invariants(to_coherence(rho_x[0])))


def test_stack_checks_name_the_first_bad_sample():
    rot = np.array([np.eye(3)] * 4)
    rot[2] = -np.eye(3)
    with pytest.raises(ValueError, match="rotation matrix at sample 2"):
        su2_from_so3(rot)
    states = scenario_example1(2.0).joint(0.0, 0.3, 3).samples
    diagonal = x_form(states)[0]
    with pytest.raises(ValueError, match="at sample 1; apply x_form"):
        bloch_invariants(to_coherence(np.stack([diagonal[0], states[1], states[2]])))
    with pytest.raises(RuntimeError, match="at sample 0"):
        x_form(states, tol=-1.0)


class TestInvariants:
    def test_requires_diagonal_correlation(self):
        rho = scenario_example1(2.0).joint_at(0.4)
        with pytest.raises(ValueError, match="x_form"):
            bloch_invariants(to_coherence(rho))

    def test_purity_relation(self):
        # I1 = 4 Tr rho^2 - 1 whenever the full z tensor is diagonal
        # (local Bloch vectors along axis 3, diagonal correlations)
        v = CoherenceVector([0, 0, 0.3], [0, 0, -0.2], np.diag([0.1, -0.15, 0.2]))
        rho = state_from_coherence(v.x, v.y, v.z)
        assert np.linalg.eigvalsh(rho)[0] > 0  # sanity: a genuine state
        i1, _ = bloch_invariants(v)
        assert i1 == pytest.approx(4 * np.trace(rho @ rho).real - 1, abs=1e-12)

    def test_constant_along_unitary_trajectory(self):
        traj = scenario_example1(2.0).joint(0.0, np.pi / 50, 51)
        i1, i2 = invariants_series(traj.samples)
        assert np.ptp(i1) < 1e-10
        assert np.ptp(i2) < 1e-10
        assert i1[0] == pytest.approx(1 / 32, abs=1e-12)

    def test_varies_under_dissipation(self):
        traj = scenario_example3(2.0, 0.2).joint(0.0, 0.1, 101)
        i1, _ = invariants_series(traj.samples)
        assert np.ptp(i1) > 0.1


class TestPauliDecompose:
    def test_round_trip(self):
        h = random_hermitian(rng)
        np.testing.assert_allclose(pauli_sum(pauli_decompose(h).h), h, atol=1e-12)

    def test_exchange_hamiltonian_coefficients(self):
        j = 2.0
        g = traceless_basis()
        h = -(j / 4) * (g[4] + g[9])  # sigma1 sigma1 + sigma2 sigma2
        dec = pauli_decompose(h)
        assert dec.h[1, 1] == pytest.approx(-j / 4)
        assert dec.h[2, 2] == pytest.approx(-j / 4)
        others = dec.h.copy()
        others[1, 1] = others[2, 2] = 0
        np.testing.assert_allclose(others, 0, atol=1e-14)
