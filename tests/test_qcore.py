import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmp.bloch import pauli_decompose
from qmp.measures import negativity, partial_transpose, purity
from qmp.qcore import (
    SIGMA,
    StateReport,
    Trajectory,
    cholesky_psd,
    dag,
    diff_series,
    hermiticity_defect,
    partial_trace,
    rk4_integrate,
    spectrum,
    trace_power,
    validate_state,
)

from _oracles import random_hermitian, random_state

rng = np.random.default_rng(20240824)


class TestStates:
    def test_validate_reports_defects(self):
        rep = validate_state(np.diag([0.9, 0.2]))
        assert not rep.ok
        assert rep.trace_defect == pytest.approx(0.1)

    def test_trajectory_shape_checks(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, 0.1, np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            Trajectory(0.0, -0.1, np.zeros((5, 4, 4)))
        traj = Trajectory(1.0, 0.5, np.zeros((3, 2, 2)))
        np.testing.assert_allclose(traj.times, [1.0, 1.5, 2.0])


class TestTensorAndTrace:
    def test_partial_trace_of_product(self):
        for _ in range(10):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            rho = np.kron(a, b)
            np.testing.assert_allclose(partial_trace(rho, "B"), a, atol=1e-14)
            np.testing.assert_allclose(partial_trace(rho, "A"), b, atol=1e-14)

    def test_partial_trace_preserves_trace(self):
        rho = random_state(rng, 4)
        assert np.trace(partial_trace(rho, "A")) == pytest.approx(1.0)
        assert np.trace(partial_trace(rho, "B")) == pytest.approx(1.0)

    def test_bad_subsystem_label(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, "C")


class TestCholesky:
    def test_factor_reconstructs(self):
        rho = random_state(rng, 4)
        L = cholesky_psd(rho)
        np.testing.assert_allclose(L @ dag(L), rho, atol=1e-12)
        assert np.allclose(np.triu(L, 1), 0)

    def test_rank_deficient_psd(self):
        # pure state: rank one, must still factor
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        L = cholesky_psd(rho)
        assert L is not None
        np.testing.assert_allclose(L @ dag(L), rho, atol=1e-12)

    def test_indefinite_rejected(self):
        assert cholesky_psd(np.diag([1.0, -1e-6])) is None

    def test_agrees_with_eigenvalue_test(self):
        for _ in range(200):
            h = random_hermitian(rng)
            if rng.random() < 0.5:
                h = h @ h.conj().T  # PSD half the time
            by_chol = cholesky_psd(h) is not None
            by_eig = spectrum(h)[0] >= -1e-10
            assert by_chol == by_eig


class TestSpectral:
    def test_trace_power_matches_eigenvalues(self):
        rho = random_state(rng, 4)
        w = spectrum(rho)
        for k in (1, 2, 3, 4):
            assert trace_power(rho, k) == pytest.approx(np.sum(w**k), abs=1e-12)

    def test_trace_power_rejects_bad_k(self):
        with pytest.raises(ValueError):
            trace_power(np.eye(2) / 2, 5)

    def test_spectrum_gauge_is_deterministic(self):
        h = random_hermitian(rng)
        _, v1 = spectrum(h, vectors=True)
        # same matrix but scrambled by a global phase on input columns
        _, v2 = spectrum(h.copy(), vectors=True)
        np.testing.assert_allclose(v1, v2)
        # fixed gauge: first sizeable component real positive
        for col in v1.T:
            lead = col[np.argmax(np.abs(col) > 1e-8)]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_spectrum_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDifferentiation:
    def test_finite_diff_on_exponential(self):
        dt = 1e-3
        ts = dt * np.arange(101)
        samples = np.array([[[np.exp(2 * t), 0], [0, np.cos(t)]] for t in ts])
        d = diff_series(samples, dt)
        expected = np.array([[[2 * np.exp(2 * t), 0], [0, -np.sin(t)]] for t in ts])
        np.testing.assert_allclose(d, expected, atol=5e-6)

    def test_diff_series_quadratic_is_exact(self):
        dt = 0.1
        ts = dt * np.arange(6)
        vals = 3.0 * ts**2 - ts + 2.0
        np.testing.assert_allclose(diff_series(vals, dt), 6.0 * ts - 1.0, atol=1e-12)


class TestRk4:
    def test_known_rotation(self):
        h = SIGMA[3]
        rho0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)

        def rhs(t, r):
            return -1j * (h @ r - r @ h)

        res = rk4_integrate(rhs, rho0, 0.0, 1e-3, 2000)
        t = 2.0
        # off-diagonal rotates as exp(-2it)
        expect = 0.5 * np.exp(-2j * t)
        assert res.samples[-1][0, 1] == pytest.approx(expect, abs=1e-10)
        assert res.trace_drift.max(axis=0) < 1e-12
        assert np.max(hermiticity_defect(res.samples)) < 1e-12

    def test_blowup_detected(self):
        def rhs(t, r):
            return 1e8 * r

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError):
                rk4_integrate(rhs, np.eye(2, dtype=complex), 0.0, 1.0, 100)

    def test_blowup_names_its_step_at_a_large_t0(self):
        # from t0 = 1.7e9 the times of nearby steps agree to six digits, so
        # the message names the step: step k is the one that ends at sample k
        t0, dt = 1.7e9, 0.005
        messages = []
        for bad in (3, 4):
            def rhs(t, r, bad=bad):  # not finite from the midpoint of step `bad` on
                return np.full_like(r, np.nan) if t > t0 + (bad - 0.75) * dt else -1j * r

            with pytest.raises(RuntimeError) as exc:
                rk4_integrate(rhs, np.eye(2, dtype=complex), t0, dt, 10)
            messages.append(str(exc.value))
        assert messages == [
            "integration produced non-finite values in step 3",
            "integration produced non-finite values in step 4",
        ]


# (n, 2, 4, 4) real and imaginary parts of Z; each sample is Z Z^dag / Tr.
state_factors = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.just(2), st.just(4), st.just(4)),
    elements=st.floats(-1.0, 1.0),
)


@settings(deadline=None, max_examples=60)
@given(a=state_factors)
def test_stack_primitives_match_per_sample_numpy(a):
    z = a[:, 0] + 1j * a[:, 1]
    rho = z @ np.conj(np.swapaxes(z, 1, 2))
    tr = np.trace(rho, axis1=1, axis2=2).real
    assume(np.all(tr > 1e-3))
    rho = rho / tr[:, None, None]

    herm = hermiticity_defect(rho)
    rep = validate_state(rho)
    powers = {k: trace_power(rho, k) for k in (1, 2, 3, 4)}
    w = spectrum(rho)
    ws, vs = spectrum(rho, vectors=True)
    pts = {sub: partial_transpose(rho, sub) for sub in ("A", "B")}
    pur = purity(rho)
    neg = negativity(rho)
    coeffs = pauli_decompose(rho).h
    for i, r in enumerate(rho):
        eig = np.linalg.eigvalsh(r)
        assert herm[i] == pytest.approx(np.max(np.abs(r - r.conj().T)), abs=1e-12)
        assert rep.trace_defect[i] == pytest.approx(abs(np.trace(r) - 1), abs=1e-12)
        assert rep.min_eigenvalue[i] == pytest.approx(eig[0], abs=1e-12)
        assert rep.ok[i] == (eig[0] >= -rep.tol)
        for k, vals in powers.items():
            assert vals[i] == pytest.approx(np.trace(np.linalg.matrix_power(r, k)).real, abs=1e-12)
        assert pur[i] == pytest.approx(np.trace(r @ r).real, abs=1e-12)
        np.testing.assert_allclose(w[i], eig, atol=1e-12)
        np.testing.assert_allclose(ws[i], eig, atol=1e-12)
        np.testing.assert_allclose(vs[i] @ np.diag(ws[i]) @ vs[i].conj().T, r, atol=1e-12)
        w2, v2 = spectrum(r, vectors=True)
        np.testing.assert_allclose(vs[i], v2, atol=1e-12)
        blocks = r.reshape(2, 2, 2, 2)
        pt_b = blocks.transpose(0, 3, 2, 1).reshape(4, 4)
        np.testing.assert_allclose(pts["B"][i], pt_b, atol=1e-12)
        np.testing.assert_allclose(pts["A"][i], blocks.transpose(2, 1, 0, 3).reshape(4, 4), atol=1e-12)
        pt_eig = np.linalg.eigvalsh(pt_b)
        assert neg[i] == pytest.approx(-pt_eig[pt_eig < 0].sum(), abs=1e-12)
        for x in range(4):
            for y in range(4):
                g = np.kron(SIGMA[x], SIGMA[y])
                assert coeffs[i, x, y] == pytest.approx(np.trace(r @ g).real / 4, abs=1e-12)

    # one matrix in: the scalar types callers had before stacks
    one = rho[0]
    for value in (hermiticity_defect(one), trace_power(one, 3), purity(one), negativity(one)):
        assert type(value) is float
    rep1 = validate_state(one)
    assert isinstance(rep1, StateReport) and type(rep1.ok) is bool
    assert all(type(f) is float for f in (rep1.hermiticity_defect, rep1.trace_defect, rep1.min_eigenvalue))
    assert spectrum(one).shape == (4,) and pauli_decompose(one).h.shape == (4, 4)
