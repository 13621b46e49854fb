"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
``[ACCEPTANCE n] PASS/FAIL`` line in addition to the usual pytest
verdict. Tolerances and grids are pinned; do not relax them.
"""

import time

import numpy as np

from qmp.bloch import invariants_series, pauli_decompose, traceless_basis
from qmp.kinematics import (
    scenario_example1,
    scenario_example2,
    scenario_example3,
    unitarity_test,
    unitary_window,
)
from qmp.measures import negativity, partial_transpose
from qmp.qcore import cholesky_psd, rk4_integrate, spectrum, trace_power
from qmp.unitary_recon import eigenframe_decompose, hamiltonian_from_evolution, reconstruct_evolution
from qmp.dissipative_recon import (
    KossakowskiMatrix,
    cp_check,
    d_from_k,
    gksl_apply,
    k_from_d,
    rotate_dissipator,
    roundtrip_verify,
)

from _oracles import (
    affine_from_superoperator,
    dissipator_superoperator,
    random_hermitian,
    random_state,
)

J = 2.0
GAMMA = 0.2


def test_criterion_1_hamiltonian_reconstruction(announce):
    start = time.perf_counter()
    traj = scenario_example1(J).joint(0.0, np.pi / 629, 630)
    ham = hamiltonian_from_evolution(reconstruct_evolution(traj))
    elapsed = time.perf_counter() - start
    coeffs = np.array([pauli_decompose(h).h for h in ham.trajectory.samples[1:-1]])
    err_h11 = np.max(np.abs(coeffs[:, 1, 1] + J / 4))
    err_h22 = np.max(np.abs(coeffs[:, 2, 2] + J / 4))
    rest = coeffs.copy()
    rest[:, 1, 1] = rest[:, 2, 2] = 0.0
    err_rest = np.max(np.abs(rest))
    ok = err_h11 < 1e-5 and err_h22 < 1e-5 and err_rest < 1e-5 and elapsed < 2.0
    announce(1, ok, f"h11 err {err_h11:.2e}, h22 err {err_h22:.2e}, "
                    f"others {err_rest:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_window_nonexistence(announce):
    start = time.perf_counter()
    pair = scenario_example2(1.0).marginals(0.0, np.pi / 1000, 1001)
    w = unitary_window(pair)
    elapsed = time.perf_counter() - start
    err_lo = abs(w.c_lo - 0.7071068)
    err_hi = abs(w.c_hi - 0.2928932)
    ok = (not w.exists) and err_lo < 1e-7 and err_hi < 1e-7 and elapsed < 1.0
    announce(2, ok, f"c_lo {w.c_lo:.7f}, c_hi {w.c_hi:.7f}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_kossakowski_verdicts(announce):
    start = time.perf_counter()
    d1 = np.zeros(15)
    d1[11] = d1[14] = -GAMMA
    k1 = k_from_d(d1)
    rep1 = cp_check(k1)
    d2 = np.zeros(15)
    d2[7:] = -GAMMA
    k2 = k_from_d(d2)
    rep2 = cp_check(k2)
    spec2 = np.sort(k2.spectrum())
    elapsed = time.perf_counter() - start
    ok = (
        not rep1.valid
        and abs(rep1.min_eigenvalue + GAMMA / 8) < 1e-9
        and rep2.valid
        and abs(spec2[-1] - GAMMA / 2) < 1e-9
        and np.max(np.abs(spec2[:-1])) < 1e-9
        and elapsed < 1.0
    )
    announce(3, ok, f"choice-1 min eig {rep1.min_eigenvalue:.6f}, "
                    f"choice-2 top eig {spec2[-1]:.6f}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_master_equation_round_trip(announce):
    start = time.perf_counter()
    traj = scenario_example3(J, GAMMA).joint(0.0, 5e-4, 20001)
    frame = eigenframe_decompose(traj)
    g = traceless_basis()
    h = (3 * J / 8) * (g[4] - g[9])  # s1s1 - s2s2
    d2 = np.zeros(15)
    d2[7:] = -GAMMA
    diss = rotate_dissipator(k_from_d(d2), frame.useq)

    def rhs(t, rho):
        return gksl_apply(h, None, rho) + diss(t, rho)

    # RK4 step 1e-3 = twice the sampling step, so midpoints hit the grid
    rep = roundtrip_verify(traj, rhs, stride=2)
    elapsed = time.perf_counter() - start
    ok = (
        rep.max_deviation < 1e-4
        and rep.max_marginal_a < 1e-4
        and rep.max_marginal_b < 1e-4
        and elapsed < 10.0
    )
    announce(4, ok, f"deviation {rep.max_deviation:.2e}, marginals "
                    f"{max(rep.max_marginal_a, rep.max_marginal_b):.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_trace_invariants(announce):
    rng = np.random.default_rng(12345)
    pairs = [(random_hermitian(rng), random_state(rng)) for _ in range(50)]
    h = np.array([p[0] for p in pairs])
    rho0 = np.array([p[1] for p in pairs])

    def rhs(t, rho):
        return -1j * (h @ rho - rho @ h)

    # all 50 instances as one (50, 4, 4) stack
    res = rk4_integrate(rhs, rho0, 0.0, 1e-3, 10000)
    worst = 0.0
    for k in (2, 3):
        vals = trace_power(res.samples[::100], k)
        worst = max(worst, float(np.max(np.abs(vals - vals[0]))))
    traj = scenario_example3(J, GAMMA).joint(0.0, 0.01, 1001)
    purities = np.array([trace_power(s, 2) for s in traj.samples])
    drop = purities[0] - purities.min()
    rep = unitarity_test(traj)
    ok = worst < 1e-8 and drop > 0.3 and not rep.passed
    announce(5, ok, f"unitary drift {worst:.2e}, dissipative purity drop {drop:.3f}")
    assert ok


def test_criterion_6_oracle_equivalences(announce):
    rng = np.random.default_rng(777)
    agree = 0
    for _ in range(1000):
        h = random_hermitian(rng)
        if rng.random() < 0.5:
            h = h @ h.conj().T
        by_chol = cholesky_psd(h) is not None
        by_eig = spectrum(h)[0] >= -1e-10
        agree += int(by_chol == by_eig)
    worst = 0.0
    for _ in range(20):
        km = random_hermitian(rng, 15)
        gen = d_from_k(KossakowskiMatrix(km))
        d_ref, l_ref = affine_from_superoperator(dissipator_superoperator(km))
        worst = max(worst, float(np.max(np.abs(gen.d - d_ref))), float(np.max(np.abs(gen.l - l_ref))))
    ok = agree == 1000 and worst < 1e-12
    announce(6, ok, f"cholesky agreement {agree}/1000, D-map deviation {worst:.2e}")
    assert ok


def test_criterion_7_negativity(announce):
    traj = scenario_example3(J, GAMMA).joint(0.0, 0.01, 201)  # t in [0, 2]
    n0 = negativity(traj.samples[0])
    peak = max(negativity(s) for s in traj.samples[1:])
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(100):
        rho = random_state(rng)
        n = negativity(rho)
        tn = float(np.sum(np.abs(spectrum(partial_transpose(rho)))))
        worst = max(worst, abs(tn - (1 + 2 * n)))
    ok = n0 < 1e-12 and peak > 0.05 and worst < 1e-10
    announce(7, ok, f"N(0) {n0:.1e}, peak {peak:.3f}, trace-norm defect {worst:.1e}")
    assert ok


def test_criterion_8_bloch_invariants(announce):
    traj1 = scenario_example1(J).joint(0.0, np.pi / 200, 201)
    i1, i2 = invariants_series(traj1.samples)
    drift1 = max(float(np.ptp(i1)), float(np.ptp(i2)))
    traj3 = scenario_example3(J, GAMMA).joint(0.0, 0.05, 201)  # t in [0, 10]
    j1, _ = invariants_series(traj3.samples)
    spread = float(np.ptp(j1))
    ok = drift1 < 1e-8 and spread > 0.1
    announce(8, ok, f"unitary drift {drift1:.2e}, dissipative I1 spread {spread:.3f}")
    assert ok
