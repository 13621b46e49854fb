import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmp.bloch import (
    invariants_series,
    pauli_basis,
    pauli_decompose,
    to_coherence,
    traceless_basis,
)
from qmp.kinematics import scenario_example1, scenario_example3
from qmp.measures import purity
from qmp.qcore import SIGMA, dag, partial_trace, spectrum, validate_state

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


def _ztilde(rho):
    """The correlation tensor ztilde_ij = z_ij - x_i y_j that
    invariants_series diagonalizes."""
    v = to_coherence(rho)
    return v.z - v.x[..., :, None] * v.y[..., None, :]


class TestCorrelation:
    def test_vanishes_on_products(self):
        zt = _ztilde(np.kron(random_state(rng, 2), random_state(rng, 2)))
        np.testing.assert_allclose(zt, 0, atol=1e-12)

    def test_oscillating_joint_state_structure(self):
        # mixed unitary scenario: ztilde has an antisymmetric off-diagonal pair
        t = 0.3
        zt = _ztilde(scenario_example1(2.0).joint_at(t))
        assert zt[0, 1] == pytest.approx(-np.sin(2 * t) / 8, abs=1e-12)
        assert zt[1, 0] == pytest.approx(np.sin(2 * t) / 8, abs=1e-12)
        assert zt[2, 2] == pytest.approx(np.cos(2 * t) ** 2 / 64, abs=1e-12)


state_factors = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.just(2), st.just(4), st.just(4)),
    elements=st.floats(-1.0, 1.0),
)


def _states(a):
    """Density matrices z z^dag / Tr from the factors drawn by state_factors."""
    z = a[:, 0] + 1j * a[:, 1]
    rho = z @ np.conj(np.swapaxes(z, 1, 2))
    tr = np.trace(rho, axis1=1, axis2=2).real
    assume(np.all(tr > 1e-3))
    return rho / tr[:, None, None]


@settings(deadline=None, max_examples=60)
@given(a=state_factors)
def test_stack_matches_per_matrix_calls(a):
    rho = _states(a)
    coh = to_coherence(rho)
    i1, i2 = invariants_series(rho)
    for i, r in enumerate(rho):
        one = to_coherence(r)
        for name in ("x", "y", "z"):
            np.testing.assert_allclose(getattr(coh, name)[i], getattr(one, name), rtol=0, atol=1e-13)
        one = invariants_series(r)
        assert abs(i1[i] - one[0]) <= 1e-13 and abs(i2[i] - one[1]) <= 1e-13

    # one matrix in: the types callers had before stacks
    v = to_coherence(rho[0])
    assert v.x.shape == v.y.shape == (3,) and v.z.shape == (3, 3)
    assert all(type(i) is float for i in invariants_series(rho[0]))


@settings(deadline=None, max_examples=200)
@given(a=state_factors, b=arrays(np.float64, (2, 2, 2, 2), elements=st.floats(-1.0, 1.0)))
def test_invariants_are_unchanged_by_local_unitaries(a, b):
    rho = _states(a)
    # where ztilde has a repeated singular value the SVD frame, and so
    # (I1, I2), is not unique: a product pure state has ztilde = 0
    s = np.linalg.svd(_ztilde(rho), compute_uv=False)
    assume(np.all(-np.diff(s, axis=-1) > 1e-2))
    wa, wb = (np.linalg.qr(m[0] + 1j * m[1])[0] for m in b)
    w = np.kron(wa, wb)
    for before, after in zip(invariants_series(rho), invariants_series(w @ rho @ dag(w))):
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-13)


def _bad_stack(defect):
    """2000 example1 samples, 1500 and 1700 given ``defect``: a stack that
    spans two of qcore's 1024-sample slices, its first bad sample in the
    second."""
    states = scenario_example1(2.0).joint(0.0, 0.001, 2000).samples.copy()
    states[[1500, 1700]] += defect
    return states


def partial_trace_b(rho):
    return partial_trace(rho, "B")


_NOT_HERMITIAN = np.zeros((4, 4))
_NOT_HERMITIAN[0, 1] = 1e-3


@pytest.mark.parametrize(
    "caller, defect, message",
    [
        (spectrum, _NOT_HERMITIAN, "expects a Hermitian matrix"),
        (pauli_decompose, _NOT_HERMITIAN, "expects a Hermitian matrix"),
        (to_coherence, _NOT_HERMITIAN, "expects a Hermitian matrix"),
        (invariants_series, _NOT_HERMITIAN, "expects a Hermitian matrix"),
        (validate_state, np.nan, "has non-finite entries"),
        (partial_trace_b, np.nan, "has non-finite entries"),
        (purity, 1e-3j * np.eye(4), "large imaginary part 0.002"),
    ],
    ids=[
        "spectrum", "pauli_decompose", "to_coherence", "invariants_series",
        "validate_state", "partial_trace", "purity",
    ],
)
def test_checks_name_the_first_bad_sample(caller, defect, message):
    states = _bad_stack(defect)
    with pytest.raises(ValueError, match=f"{message} at sample 1500$"):
        caller(states)
    with pytest.raises(ValueError, match=f"{message}$"):
        caller(states[1500])


def test_stack_checks_name_the_first_bad_sample():
    # anti-Hermitian by 2e-9: within the Hermitian check's 1e-8, but its
    # Pauli coefficients have an imaginary part of 4e-9
    states = _bad_stack(1e-9j * pauli_basis()[7])
    for caller in (to_coherence, invariants_series):
        with pytest.raises(ValueError, match="not real at sample 1500$"):
            caller(states)
        with pytest.raises(ValueError, match="not real$"):
            caller(states[1500])


class TestInvariants:
    def test_closed_form_on_diagonal_correlation(self):
        # with ztilde = diag(d) the invariants read off x, y and
        # z_ii = d_i + x_i y_i directly, whatever order and signs the SVD picks
        x = np.array([[0.1, -0.2, 0.3], [0.0, 0.25, 0.0]])
        y = np.array([[0.2, 0.1, -0.1], [-0.3, 0.0, 0.1]])
        d = np.array([[0.3, -0.2, 0.1], [-0.1, 0.05, -0.2]])
        zd = d + x * y
        rho = np.array([state_from_coherence(*v, np.diag(d_) + np.outer(*v)) for *v, d_ in zip(x, y, d)])
        assert np.all(np.linalg.eigvalsh(rho)[:, 0] > 0)  # sanity: genuine states
        i1, i2 = invariants_series(rho)
        np.testing.assert_allclose(i1, (x * x + y * y + zd * zd).sum(-1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(i2, (x * y * zd).sum(-1) - zd.prod(-1), rtol=0, atol=1e-14)

    def test_purity_relation(self):
        # I1 = 4 Tr rho^2 - 1 whenever the full z tensor is diagonal
        # (local Bloch vectors along axis 3, diagonal correlations)
        rho = state_from_coherence([0, 0, 0.3], [0, 0, -0.2], np.diag([0.1, -0.15, 0.2]))
        assert np.linalg.eigvalsh(rho)[0] > 0  # sanity: a genuine state
        i1, _ = invariants_series(rho)
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
