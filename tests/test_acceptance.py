"""End-to-end acceptance checks for the full analysis pipeline.

Each test covers one criterion and prints a single [PASS] line; any
assertion failure surfaces as the matching [FAIL] line instead.
"""

import math

import numpy as np
import pytest

import pnmcore as p
from pnmcore.analysis import CPTP, NONCPTP, UNDEFINED
from pnmcore.measures import _default_pair
from tests.conftest import GRID_N


def report(num: int, label: str, checks):
    """checks: list of (name, got, want, tol); asserts all and prints one line."""
    bad = [
        f"{name}: got {got!r}, want {want!r} +/- {tol}"
        for name, got, want, tol in checks
        if not (got == want if tol is None else abs(got - want) <= tol)
    ]
    if bad:
        print(f"[FAIL] criterion {num}: {label}: " + "; ".join(bad))
        pytest.fail("; ".join(bad))
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_characteristic_times(catalog):
    e, horizon, ct = catalog["paper-example"]
    report(
        1,
        "characteristic times and revival of the oscillatory depolarizing family",
        [
            ("T", ct.T, 0.275, 0.005),
            ("tau", ct.tau, 0.495, 0.005),
            ("t_star", ct.t_star, 1.040, 0.005),
            ("f(T)", e.f_at(ct.T), 0.334, 0.005),
            ("delta", p.revivals_delta(e.f, horizon), 0.164, 0.005),
        ],
    )


def test_criterion_2_measures_and_core(catalog):
    e, horizon, ct = catalog["paper-example"]
    rep = p.measure_report(e, horizon, ct.T)
    core = p.extract_pnm_core(e, ct.T)
    cct = p.characteristic_times(core, horizon - ct.T)
    report(
        2,
        "backflow measures of the oscillatory family and its core",
        [
            ("M_D", rep.M_D, 0.328, 0.01),
            ("M_D core", rep.M_D_core, 0.983, 0.01),
            ("M_mix", rep.M_mix, 0.141, 0.005),
            ("M_mix core", rep.M_mix_core, 0.329, 0.005),
            ("amplification", rep.amplification, 2.990, 0.05),
            ("core tau", cct.tau, 0.220, 0.005),
            ("core t_star", cct.t_star, 0.765, 0.005),
        ],
    )


def test_criterion_3_min_choi_eigenvalue(catalog):
    e, horizon, _ = catalog["paper-example"]
    grid = p.scan_regions(e, horizon, 500)
    val, s, t = grid.min_value()
    report(
        3,
        "most negative intermediate-map Choi eigenvalue and its location",
        [
            ("min eigenvalue", val, -0.241, 0.005),
            ("s", s, 0.495, 0.01),
            ("t", t, 1.040, 0.01),
        ],
    )


def test_criterion_4_non_invertible_family(catalog):
    e, horizon, ct = catalog["appendix-f"]
    core = p.extract_pnm_core(e, ct.T)
    with pytest.raises(p.UndefinedIntermediateMap):
        e.intermediate_map(0.5, 0.7)
    report(
        4,
        "non-invertible family times, revival, and undefined map at the zero of f",
        [
            ("T", ct.T, 0.125, 0.001),
            ("tau", ct.tau, 0.5, 0.002),
            ("t_star", ct.t_star, 1.5, 0.002),
            ("delta", p.revivals_delta(e.f, horizon), 0.64, 0.002),
            ("core delta", p.revivals_delta(core.f, horizon - ct.T), 1.0, 0.005),
        ],
    )


def test_criterion_5_quasi_eternal(catalog, catalog_grids):
    _, _, ct = catalog["quasi-eternal"]
    checks = [
        ("t0_alpha(0.1)", p.t0_alpha(0.1), 3.4657, 0.001),
        ("T for alpha=0.1 t0=4", ct.T, 4.0 - p.t0_alpha(0.1), 0.005),
    ]
    for alpha, t0 in ((0.5, 2.0), (1.0, 1.5), (2.0, 1.0)):
        tau = p.compute_tau_lambda(p.QuasiEternal(alpha=alpha, t0=t0), t0 + 3.0, 800)
        checks.append((f"tau({alpha}, {t0})", tau, t0, 0.005))
    grid = catalog_grids["eternal"]
    # interior cells have 0 < s < t; the s = 0 row holds the (CPTP) dynamical maps
    i, j = np.triu_indices(grid.n, 1)
    interior = grid.cls[i[i > 0], j[i > 0]]
    checks.append(("eternal interior cells all non-CPTP", int(np.all(interior == NONCPTP)), 1, None))
    report(5, "quasi-eternal family threshold, T, onset times, eternal scan", checks)


def test_criterion_6_rates_match_probabilities():
    checks = []
    for alpha in (0.5, 1.0, 5.0):
        gx = p.ScalarFn.parse(f"{alpha / 2}")
        gz = p.ScalarFn.parse(f"-{alpha / 2}*tanh(t)")
        worst = max(
            float(np.max(np.abs(np.array(p.pauli_from_rates(gx, gx, gz, t))
                                - np.array(p.quasi_eternal_probs(alpha, 0.0, 0.0, t)))))
            for t in np.linspace(0.05, 5.0, 50)
        )
        checks.append((f"alpha={alpha} max prob deviation", worst, 0.0, 1e-6))
    report(6, "rate-driven evolution reproduces the closed-form probabilities", checks)


def test_criterion_7_property_suites(catalog, catalog_grids):
    checks = []
    # ordering T <= tau <= t_star on every catalog entry
    ok = all(ct.T <= ct.tau + 1e-9 and ct.tau <= ct.t_star + 1e-9 for _, _, ct in catalog.values())
    checks.append(("ordering T <= tau <= t_star", int(ok), 1, None))
    # composition rules on every grid triple of every model
    violations = sum(p.verify_composition_rules(g) for g in catalog_grids.values())
    checks.append(("composition-rule violations", violations, 0, None))
    # flux positivity only inside non-CPTP (or undefined) cells
    ok = True
    for name in ("paper-example", "eternal", "quasi-eternal"):
        e, horizon, _ = catalog[name]
        grid = catalog_grids[name]
        series = p.flux_series(e, _default_pair(e.dim), horizon, GRID_N)
        for k in np.flatnonzero(series.sigma > 1e-9):
            ok = ok and int(grid.cls[k, k + 1]) in (NONCPTP, UNDEFINED)
    checks.append(("backflow implies non-CPTP cell", int(ok), 1, None))
    # measure hierarchy on every computed series
    ok = True
    for e, horizon, _ in catalog.values():
        m_w, m_w_max, m_w_av = p.integrate_flux_measures(
            p.flux_series(e, _default_pair(e.dim), horizon, 2000)
        )
        ok = ok and m_w_av <= m_w_max + 1e-9 <= m_w + 2e-9
    checks.append(("hierarchy M_W_av <= M_W_max <= M_W", int(ok), 1, None))
    # RHP invariance and core dominance for the finitely-noisy entries
    for name in ("paper-example", "appendix-f", "quasi-eternal"):
        e, horizon, ct = catalog[name]
        core = p.extract_pnm_core(e, ct.T)
        shift = (e.t0 - core.t0) if isinstance(e, p.QuasiEternal) else ct.T
        parent, child = p.rhp_measure(e, horizon), p.rhp_measure(core, horizon - shift)
        if math.isinf(parent):
            checks.append((f"RHP parent=core ({name})", int(math.isinf(child)), 1, None))
        else:
            checks.append((f"RHP parent=core ({name})", child, parent, 1e-9 * parent))
    for name in ("paper-example", "appendix-f"):
        e, horizon, ct = catalog[name]
        core = p.extract_pnm_core(e, ct.T)
        dominates = p.revivals_delta(core.f, horizon - ct.T) >= p.revivals_delta(e.f, horizon) - 1e-9
        checks.append((f"core dominance ({name})", int(dominates), 1, None))
    # orthogonal-pair postconditions on 100 random traceless hermitian inputs
    rng = np.random.default_rng(7)
    ok = True
    for i in range(100):
        dim = 2 + i % 3
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        h -= np.trace(h).real * np.eye(dim) / dim
        pair = p.orthogonal_pair_from_difference(h)
        diff = pair.rho1 - pair.rho2
        tn = np.sum(np.abs(np.linalg.eigvalsh(h)))
        ok = ok and abs(p.trace_norm(diff) - 2.0) < 1e-9
        ok = ok and np.max(np.abs(pair.rho1 @ pair.rho2)) < 1e-9
        ok = ok and np.max(np.abs(diff - (2.0 / tn) * h)) < 1e-9
    checks.append(("orthogonal-pair postconditions", int(ok), 1, None))
    report(7, "ordering, composition, backflow, hierarchy, RHP, core, pair properties", checks)


def test_criterion_8_eb_threshold():
    e = p.Depolarizing(dim=2, f=p.ScalarFn.parse("exp(-t)"))
    t_eb = p.eb_time_qubit(e, 3.0, 3000)
    report(
        8,
        "entanglement-breaking onset of exponential depolarizing at f = 1/3",
        [("f at EB onset", e.f_at(t_eb), 1.0 / 3.0, 1e-4)],
    )
