"""Acceptance suite: every check the package promises, at its stated
tolerance, one printed verdict per criterion.  These run on the shipped
presets, so a green suite certifies the default scenarios end to end."""

import math

import numpy as np
import pytest

from bosonlr import (
    ModelParams,
    assemble_hamiltonian,
    basis_vector,
    binomial_inverse_moment,
    build_chain,
    commutator,
    condensate_nonlocality_expectation,
    eigendecompose,
    enumerate_basis,
    enumerate_sectors,
    evolve_state,
    free_particle_amplitude,
    full_region,
    total_number,
)
from bosonlr.config import config_for_experiment
from bosonlr.dynamics import StateVector
from bosonlr.experiments import RUNNERS


def verdict(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {label}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_free_propagator_oracle():
    g = build_chain(81)
    reg = full_region(g)
    basis = enumerate_basis(reg, sector=1)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0))
    decomp = eigendecompose(H)
    center = 40
    occ0 = [0] * 81
    occ0[center] = 1
    psi = basis_vector(basis, occ0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        amps = decomp.propagate(psi.amplitudes, t)
        for x in range(-10, 11):
            occ = [0] * 81
            occ[center + x] = 1
            worst = max(worst, abs(amps[basis.index_of(occ)] - free_particle_amplitude(x, t)))
    verdict(1, f"propagator vs Bessel oracle, max err {worst:.2e}", worst < 1e-8)


def test_criterion_2_exact_algebra_invariants():
    scenarios = []
    g6 = build_chain(6)
    b6 = enumerate_basis(full_region(g6), sector=3)
    scenarios.append((g6, b6, ModelParams(hopping=1.0, onsite=1.0)))
    g10 = build_chain(10)
    b10 = enumerate_sectors(full_region(g10), 3, cap=2)
    scenarios.append((g10, b10, ModelParams(hopping=1.0, onsite=1.0)))
    g2 = build_chain(2)
    b2 = enumerate_sectors(full_region(g2), 6)
    scenarios.append((g2, b2, ModelParams(hopping=0.2, onsite=1.0)))

    commutes = hermitian = True
    drift = agreement = 0.0
    for g, basis, params in scenarios:
        H = assemble_hamiltonian(g, full_region(g), basis, params)
        commutes &= commutator(H, total_number(basis)).matrix.nnz == 0
        hermitian &= (H.matrix - H.matrix.conj().T).nnz == 0
        decomp = eigendecompose(H)
        rng = np.random.default_rng(11)
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        amps /= np.linalg.norm(amps)
        psi = StateVector(basis, amps)
        out = evolve_state(H, psi, 5.0, engine="krylov")
        drift = max(drift, abs(out.norm - 1.0))
        for t in (0.7, 5.0):
            dense = evolve_state(H, psi, t, decomposition=decomp)
            krylov = evolve_state(H, psi, t, engine="krylov")
            agreement = max(agreement, float(np.abs(dense.amplitudes - krylov.amplitudes).max()))
    ok = commutes and hermitian and drift < 1e-10 and agreement < 1e-9
    verdict(
        2,
        f"exact algebra (drift {drift:.1e}, engines {agreement:.1e})",
        ok,
    )


def test_criterion_3_moment_growth_certificate():
    rep = RUNNERS["moments"](config_for_experiment("moments"))
    ts = sorted({r["t"] for r in rep.records})
    grid_ok = ts[0] == 0.0 and ts[-1] == 2.0 and len(ts) == 21
    verdict(
        3,
        f"moment growth, max measured/bound {rep.summary['max_ratio']:.2e}",
        rep.passed and grid_ok,
    )


def test_criterion_4_cutoff_certificate():
    rep = RUNNERS["cutoff"](config_for_experiment("cutoff"))
    swept = [r for r in rep.records if not r["at_cap"]]
    lambdas_ok = sorted({r["lambda"] for r in swept}) == [1, 2, 3, 4]
    at_cap_zero = all(r["measured"] == 0.0 for r in rep.records if r["at_cap"])
    bounded = all(r["measured"] <= r["bound"] for r in swept)
    verdict(4, "cutoff error under certificate, exact zero at cap", rep.passed and lambdas_ok and at_cap_zero and bounded)


def test_criterion_5_light_cone_certificate():
    rep = RUNNERS["lr"](config_for_experiment("lr"))
    shells = [r for r in rep.records if r["check"] == "shells"]
    ms = sorted({r["m"] for r in shells})
    ts = sorted({r["t"] for r in shells})
    grid_ok = ms == [1, 2, 3, 4] and ts == [0.25, 0.5]
    bounded = all(r["measured"] <= r["bound"] for r in shells)
    zero_when_covering = all(r["measured"] == 0.0 for r in shells if r["covering"])
    saw_covering = any(r["covering"] for r in shells)
    verdict(
        5,
        "shell-restricted dynamics under light-cone certificate",
        rep.passed and grid_ok and bounded and zero_when_covering and saw_covering,
    )


def test_criterion_6_thermal_equilibrium_checks():
    cfg = config_for_experiment("kms")
    rep = RUNNERS["kms"](cfg)
    boundary = [r for r in rep.records if r["check"] == "boundary"]
    pairs = {r["pair"] for r in boundary}
    ts = sorted({r["t"] for r in boundary})
    grid_ok = len(pairs) == 5 and ts == [0.0, 0.5, 1.0]
    residuals_ok = all(r["value"] < 1e-9 for r in boundary)
    strip_ok = all(r["pass"] for r in rep.records if r["check"] == "strip")
    invariance_ok = all(r["value"] < 1e-9 for r in rep.records if r["check"] == "invariance")
    tail_ok = rep.summary["tail_estimate"] < 1e-10
    verdict(
        6,
        f"equilibrium residuals (max {rep.summary['max_boundary_residual']:.1e}, "
        f"tail {rep.summary['tail_estimate']:.1e})",
        rep.passed and grid_ok and residuals_ok and strip_ok and invariance_ok and tail_ok,
    )


def test_criterion_7_derivative_certificate():
    rep = RUNNERS["derivative"](config_for_experiment("derivative"))
    cert = rep.summary["certified_min_eig"] >= -1e-8
    finite = math.isfinite(rep.summary["uniform_constant"])
    volumes = set(rep.summary["derivative_sup_per_volume"]) == {"4", "5", "6"}
    verdict(
        7,
        f"derivative certificate (C={rep.summary['certified_constant']:.3g}, "
        f"C'={rep.summary['uniform_constant']:.3g})",
        rep.passed and cert and finite and volumes,
    )


def test_criterion_8_condensate_nonlocality():
    p = abs(free_particle_amplitude(1, 0.5)) ** 2
    ms = [1, 10, 100, 1000, 10000]
    vals = [condensate_nonlocality_expectation(m, 1, 0.5) for m in ms]
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    small = vals[-1] < 0.05 if ms[-1] * p > 400 else True
    crosscheck = all(
        abs(
            binomial_inverse_moment(m, p)
            - sum(math.comb(m, k) * p**k * (1 - p) ** (m - k) / (k + 1) for k in range(m + 1))
        )
        < 1e-12
        for m in ms
        if m <= 100
    )
    verdict(
        8,
        f"condensate nonlocality (final {vals[-1]:.2e} at m=10^4)",
        monotone and small and crosscheck,
    )


def test_criterion_9_local_approximation_trend():
    rep = RUNNERS["local-approx"](config_for_experiment("local-approx"))
    m0 = rep.summary["empirical_m0"]
    sups = [r["sup_difference"] for r in rep.records]
    decreasing = all(b <= a * 1.1 + 1e-15 for a, b in zip(sups, sups[1:]))
    verdict(
        9,
        f"local approximation trend (m0 = {m0})",
        rep.passed and m0 is not None and decreasing,
    )
