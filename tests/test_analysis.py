import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore.analysis import CLASS_NAMES, CPTP, NONCPTP, REFINE_XTOL, UNDEFINED, CptpGrid
from pnmcore.cli import _export_rows


def test_scan_diagonal_is_cptp(catalog_grids):
    for name, grid in catalog_grids.items():
        diag = np.diag(grid.value)
        assert np.all(np.abs(diag) <= 1e-10), name
        assert all(
            CLASS_NAMES[int(grid.cls[i, i])] == "CPTP" for i in range(grid.n)
        ), name


def test_scan_rejects_bad_arguments():
    e = p.make_preset("paper-example")
    with pytest.raises(ValueError):
        p.scan_regions(e, -1.0, 100)
    with pytest.raises(ValueError):
        p.scan_regions(e, 1.0, 4)


def test_scan_matches_dense_choi_eigenvalues():
    # the closed-form scan agrees with the brute-force superoperator path
    e = p.make_preset("paper-example")
    grid = p.scan_regions(e, 2.0, 32)
    from pnmcore import linalg

    for i in (0, 5, 17):
        for j in (20, 31):
            s, t = float(grid.times[i]), float(grid.times[j])
            dense = linalg.min_choi_eigenvalue(e.intermediate_map(s, t))
            assert abs(grid.value[i, j] - dense) < 1e-9


def test_scan_quasi_eternal_matches_scalar_probs():
    e = p.QuasiEternal(alpha=0.1, t0=4.0)
    grid = p.scan_regions(e, 10.0, 64)
    for i, j in ((3, 40), (20, 63), (50, 60)):
        s, t = float(grid.times[i]), float(grid.times[j])
        assert abs(grid.value[i, j] - min(e.probs(s, t))) < 1e-12


def test_regularized_scan_for_non_invertible():
    e = p.make_preset("appendix-f")
    grid = p.scan_regions(e, 5.0, 64)
    assert grid.regularized
    # regularized value (f(s) - f(t))/4 at a sampled cell
    s, t = float(grid.times[2]), float(grid.times[40])
    assert abs(grid.value[2, 40] - (e.f_at(s) - e.f_at(t)) / 4) < 1e-12


def _scan_peak_bytes(e, horizon, n):
    tracemalloc.start()
    try:
        p.scan_regions(e, horizon, n).value  # the deferred grid, materialized
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pauli_scan_memory_is_bounded_like_depolarizing():
    # the Pauli rows are filled in fixed blocks, so beyond the grid itself
    # the scan holds one block of ratios, not the whole (n, n, 3) array
    pauli = _scan_peak_bytes(p.QuasiEternal(alpha=0.1, t0=4.0), 40.0, 800)
    depolarizing = _scan_peak_bytes(p.make_preset("paper-example"), 2.5, 800)
    assert pauli <= 1.5 * depolarizing


def _export_peak_bytes(grid, fmt):
    tracemalloc.start()
    try:
        for _ in _export_rows(grid, fmt):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_export_memory_is_bounded_by_one_block():
    # the CSV lines and the JSON cells are built a block of whole rows at a
    # time, so the export holds one block's buffers whatever the grid size
    for n in (800, 1600):
        grid = p.scan_regions(p.make_preset("paper-example"), 2.5, n)
        grid.value  # built before tracing: the bound is on the export's own buffers
        for fmt in ("csv", "json"):
            assert _export_peak_bytes(grid, fmt) <= 8 * 2**20, (n, fmt)


def test_min_value_location(catalog_grids):
    v, s, t = catalog_grids["paper-example"].min_value()
    assert v < 0
    assert s < t


def test_characteristic_times_ordering(catalog):
    for name, (_, _, ct) in catalog.items():
        assert ct.T <= ct.tau + REFINE_XTOL, name
        assert ct.tau <= ct.t_star + REFINE_XTOL, name
        assert ct.T >= 0.0, name


def test_classifications(catalog):
    assert catalog["paper-example"][2].classification == "NNM"
    assert catalog["appendix-f"][2].classification == "NNM"
    assert catalog["quasi-eternal"][2].classification == "NNM"
    assert catalog["eternal"][2].classification == "PNM"
    assert catalog["unitary-prefix"][2].classification == "PNM"
    assert catalog["pathological"][2].classification == "PNM"


def test_markovian_detection():
    e = p.Depolarizing(p.ScalarFn.parse("exp(-t)"))
    ct = p.characteristic_times(e, 3.0, 200)
    assert ct.classification == "Markovian"
    assert not math.isfinite(ct.T)
    assert "T" in ct.horizon_limited and "tau" in ct.horizon_limited


def test_unitary_trivial_detection():
    e = p.Depolarizing(p.ScalarFn.constant(1.0))
    ct = p.characteristic_times(e, 2.0, 64)
    assert ct.classification == "UnitaryTrivial"


def test_eternal_triple_collapses(catalog):
    ct = catalog["eternal"][2]
    assert ct.T == 0.0
    assert ct.tau == 0.0
    assert ct.t_star == 0.0


def test_t_equals_tau_forces_t_star():
    # whenever T = tau the third time collapses onto them
    e = p.make_preset("eternal")
    t_star = p.compute_t_star(e, 3.0, 0.1, 0.1, 100)
    assert t_star == 0.1


def test_characteristic_value_returns_at_t_star(catalog):
    for name in ("paper-example", "appendix-f"):
        e, _, ct = catalog[name]
        assert abs(e.f_at(ct.t_star) - e.f_at(ct.T)) < 1e-3, name


def test_extract_core_depolarizing(catalog):
    e, horizon, ct = catalog["paper-example"]
    core = p.extract_pnm_core(e, ct.T)
    assert isinstance(core, p.Depolarizing)
    assert abs(core.f_at(0.0) - 1.0) < 1e-9
    # core characteristic function is the renormalized shift of the parent
    for t in (0.1, 0.5, 1.0):
        assert core.f_at(t) == e.f(t + ct.T) / e.f_at(ct.T)
    ts = np.linspace(0.0, horizon - ct.T, 201)
    assert np.array_equal(core.f(ts), e.f(ts + ct.T) / e.f_at(ct.T))


def test_extract_core_zero_shift_is_identity():
    e = p.make_preset("eternal")
    assert p.extract_pnm_core(e, 0.0) is e


def test_extract_core_quasi_eternal():
    # the core is the parent shifted by T, not a re-parametrized QuasiEternal:
    # at both configs t0 - T < t0_alpha, where QuasiEternal(alpha, t0 - T) raises
    for params, horizon in (({}, 5.0), ({"t0": 4.0}, 40.0)):
        e = p.make_preset("quasi-eternal", **params)
        T = p.characteristic_times(e, horizon, 400).T
        assert e.t0 - T < p.t0_alpha(e.alpha)
        core = p.extract_pnm_core(e, T)
        a, t0, t = e.alpha, e.t0, np.linspace(0.0, horizon - T, 201)
        lxy = np.exp(-a * t) * (np.cosh(t - t0 + T) / np.cosh(t0 - T)) ** a
        closed = np.stack([lxy, lxy, np.exp(-2 * a * t)], axis=-1)
        assert np.allclose(core.map_eigenvalues(t), closed, rtol=0.0, atol=1e-12)


def test_core_is_pnm(catalog):
    for name in ("paper-example", "appendix-f"):
        e, horizon, ct = catalog[name]
        core = p.extract_pnm_core(e, ct.T)
        core_ct = p.characteristic_times(core, horizon - ct.T, 400)
        assert core_ct.classification == "PNM", name
        assert core_ct.T <= 2e-3, name


def test_core_idempotent(catalog):
    # extracting the core of a core changes nothing beyond grid tolerance
    e, horizon, ct = catalog["paper-example"]
    core = p.extract_pnm_core(e, ct.T)
    core_ct = p.characteristic_times(core, horizon - ct.T, 400)
    again = p.extract_pnm_core(core, core_ct.T)
    for t in (0.2, 0.7):
        assert abs(again.f_at(t) - core.f_at(t)) < 1e-3


def test_shifted_core_times(catalog):
    e, horizon, ct = catalog["paper-example"]
    shifted = ct.shifted()
    assert shifted.T == 0.0
    assert abs(shifted.tau - (ct.tau - ct.T)) < 1e-12
    assert abs(shifted.t_star - (ct.t_star - ct.T)) < 1e-12
    core = p.extract_pnm_core(e, ct.T)
    recomputed = p.characteristic_times(core, horizon - ct.T, 400)
    assert abs(recomputed.tau - shifted.tau) < 5e-3
    assert abs(recomputed.t_star - shifted.t_star) < 5e-3


def test_composition_rules_hold(catalog_grids):
    for name, grid in catalog_grids.items():
        violations = p.verify_composition_rules(grid)
        assert violations == 0, name


def test_composition_rules_deterministic(catalog_grids):
    grid = catalog_grids["paper-example"]
    a = p.verify_composition_rules(grid)
    b = p.verify_composition_rules(grid)
    assert a == b


def _brute_force_violations(cls):
    """Rule (i) checked triple by triple: the reference for the path count."""
    c = cls.tolist()
    n = len(c)
    return sum(
        c[i][j] == CPTP and c[j][k] == CPTP and c[i][k] == NONCPTP
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def _class_grid(cls):
    n = len(cls)
    value = np.where(cls == NONCPTP, -1.0, 0.0)
    return CptpGrid(1.0, n, np.linspace(0.0, 1.0, n), value, cls)


def test_composition_rule_count_on_hand_built_grid():
    cls = np.full((5, 5), CPTP, dtype=np.int8)
    cls[np.tril_indices(5, -1)] = NONCPTP  # below the diagonal: ignored
    cls[0, 4] = NONCPTP  # through j = 1 and j = 3
    cls[2, 4] = UNDEFINED  # drops the path through j = 2
    cls[1, 3] = NONCPTP  # through j = 2
    assert p.verify_composition_rules(_class_grid(cls)) == 3
    cls[1, 2] = UNDEFINED
    assert p.verify_composition_rules(_class_grid(cls)) == 2
    cls[:] = CPTP
    assert p.verify_composition_rules(_class_grid(cls)) == 0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(16, 40),
    weights=st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_composition_rule_count_matches_brute_force(n, weights, seed):
    rng = np.random.default_rng(seed)
    prob = np.array(weights) / sum(weights)
    cls = rng.choice([CPTP, NONCPTP, UNDEFINED], (n, n), p=prob).astype(np.int8)
    assert p.verify_composition_rules(_class_grid(cls)) == _brute_force_violations(cls)
