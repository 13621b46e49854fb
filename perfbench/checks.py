"""Correctness checks on the files the CLI commands write.

Each check raises CheckFailed with a reason. References come from
scenarios.py (numpy closed forms, no qmp import) or from properties the
method must have.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import scenarios as S


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _max_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def _trajectory(path, p: S.Params, want, tol, what):
    _require(os.path.exists(path), f"{what}: {os.path.basename(path)} missing")
    t0, dt, got = S.read_trajectory(path)
    _require(t0 == 0.0 and abs(dt - p.dt) <= 1e-15 * p.dt, f"{what}: grid t0={t0}, dt={dt}")
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, want {want.shape}")
    err = _max_err(got, want)
    _require(err <= tol, f"{what}: max deviation {err:.3g} > {tol:g}")
    return got


def _report(path, what):
    _require(os.path.exists(path), f"{what}: {os.path.basename(path)} missing")
    with open(path) as fh:
        return json.load(fh)


def _csv(path, what):
    _require(os.path.exists(path), f"{what}: {os.path.basename(path)} missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _pauli_coefficients(h: np.ndarray) -> np.ndarray:
    """h_ab = Tr(H sigma_a (x) sigma_b) / 4, columns ordered 4a + b."""
    g = np.array([S.pauli_product(a, b) for a in range(4) for b in range(4)])
    return np.einsum("kij,...ji->...k", g, h).real / 4.0


def unitary_reconstruction(p: S.Params, out_dir: str):
    """Interior H(t) is W(-(J/4)(s1 s1 + s2 s2))W^dag within 1e-5, in
    hamiltonian.json and in pauli_coefficients.csv."""
    h_want = S.example1_hamiltonian(p)
    _, dt, ham = S.read_trajectory(os.path.join(out_dir, "hamiltonian.json"))
    _require(ham.shape == (p.n, 4, 4), f"hamiltonian.json: shape {ham.shape}")
    _require(abs(dt - p.dt) <= 1e-15 * p.dt, f"hamiltonian.json: dt {dt}")
    err = _max_err(ham[1:-1], h_want)
    _require(err < 1e-5, f"interior H(t) deviates by {err:.3g} from the exchange Hamiltonian")
    head, rows = _csv(os.path.join(out_dir, "pauli_coefficients.csv"), "pauli coefficients")
    _require(head == ["t"] + [f"h{a}{b}" for a in range(4) for b in range(4)], "csv header")
    _require(rows.shape == (p.n, 17), f"csv shape {rows.shape}")
    _require(_max_err(rows[:, 0], p.times) < 1e-12, "csv time column")
    err = _max_err(rows[1:-1, 1:], _pauli_coefficients(h_want))
    _require(err < 1e-5, f"interior Pauli coefficients deviate by {err:.3g}")
    _report(os.path.join(out_dir, "report.json"), "reconstruct unitary")


def master_reconstruction(p: S.Params, out_dir: str):
    """Some CP-valid candidate has Kossakowski spectrum {gamma/2, 0 x 14}
    and round-trip deviation below 1e-4."""
    rep = _report(os.path.join(out_dir, "report.json"), "reconstruct master")
    _require(rep.get("unitary") is False, "example3 reported as unitary")
    want = np.array([0.0] * 14 + [p.gamma / 2])
    good = [
        c["label"]
        for c in rep.get("candidates", [])
        if c.get("cp_valid") is True
        and c.get("roundtrip_deviation", np.inf) < 1e-4
        and _max_err(np.sort(c["k_spectrum"]), want) < 1e-6
    ]
    _require(good, "no CP-valid candidate with spectrum {gamma/2, 0 x 14} and round trip < 1e-4")


def example2_files(p: S.Params, out_dir: str):
    """Marginals match the example2 closed forms; no joint file."""
    rho_a, rho_b = S.example2_marginals(p)
    _trajectory(os.path.join(out_dir, "marginal_a.json"), p, rho_a, 1e-12, "example2 A")
    _trajectory(os.path.join(out_dir, "marginal_b.json"), p, rho_b, 1e-12, "example2 B")
    _require(not os.path.exists(os.path.join(out_dir, "joint.json")), "example2 wrote a joint")


def window_report(p: S.Params, path: str):
    """Empty window with c_lo = 1/sqrt2 and c_hi = 1 - 1/sqrt2 (1e-7);
    not isospectral, with the spectral distance recomputed here."""
    rep = _report(path, "check marginal pair")
    win = rep.get("window", {})
    _require(win.get("exists") is False, "example2 window reported non-empty")
    err_lo = abs(win.get("c_lo", np.nan) - 1 / np.sqrt(2))
    err_hi = abs(win.get("c_hi", np.nan) - (1 - 1 / np.sqrt(2)))
    _require(err_lo < 1e-7 and err_hi < 1e-7, f"window constants off by {err_lo:.3g}, {err_hi:.3g}")
    rho_a, rho_b = S.example2_marginals(p)
    dist = _max_err(np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b))
    _require(rep.get("isospectral") is False, "example2 marginals reported isospectral")
    err = abs(rep.get("max_spectral_distance", np.nan) - dist)
    _require(err < 1e-9, f"spectral distance off by {err:.3g}")


def example3_files(p: S.Params, out_dir: str):
    """Joint and marginals match U_t Gamma(t) U_t^dag and its reductions."""
    rho = S.example3_joint(p)
    _trajectory(os.path.join(out_dir, "joint.json"), p, rho, 1e-10, "example3 joint")
    _trajectory(os.path.join(out_dir, "marginal_a.json"), p, S.reduce(rho, "A"), 1e-10, "example3 A")
    _trajectory(os.path.join(out_dir, "marginal_b.json"), p, S.reduce(rho, "B"), 1e-10, "example3 B")


def unitarity_report(p: S.Params, path: str):
    """Verdict FAIL, with the purity drift recomputed here."""
    rep = _report(path, "check joint")
    _require(rep.get("verdict") == "FAIL", f"example3 unitarity verdict {rep.get('verdict')!r}")
    pur = S.purity(S.example3_joint(p))
    err = abs(rep.get("drift", {}).get("2", np.nan) - float(np.max(np.abs(pur - pur[0]))))
    _require(err < 1e-9, f"purity drift off by {err:.3g}")


def measures_series(p: S.Params, path: str):
    """Purities and negativity match numpy within 1e-10."""
    head, rows = _csv(path, "measures")
    _require(head == ["t", "purity_AB", "purity_A", "purity_B", "negativity"], "csv header")
    _require(rows.shape == (p.n, 5), f"csv shape {rows.shape}")
    rho = S.example3_joint(p)
    want = np.column_stack([
        p.times,
        S.purity(rho),
        S.purity(S.reduce(rho, "A")),
        S.purity(S.reduce(rho, "B")),
        S.negativity(rho),
    ])
    err = _max_err(rows, want)
    _require(err < 1e-10, f"measures deviate by {err:.3g}")
