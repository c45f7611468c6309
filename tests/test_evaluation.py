"""Phase-space grid evaluation and energy drift."""

import numpy as np
import pytest

from symplearn.evaluation import energy_drift, evaluate_ood, phase_grid
from symplearn.integrators import FpiConfig, integrate
from symplearn.systems import get_system


def test_phase_grid_covers_the_sampling_box():
    dw = get_system("double_well")
    pts, meta = phase_grid(dw, points_per_axis=5)
    assert pts.shape == (25, 2)
    assert meta["points_per_axis"] == 5
    assert meta["grid_axes"] == [0, 1]
    lo_q, hi_q = dw.bounds[0]
    lo_p, hi_p = dw.bounds[1]
    assert pts[:, 0].min() == lo_q and pts[:, 0].max() == hi_q
    assert pts[:, 1].min() == lo_p and pts[:, 1].max() == hi_p
    # q varies slowest (ij indexing): first 5 rows share q
    assert np.all(pts[:5, 0] == lo_q)
    assert np.allclose(np.unique(pts[:, 0]), np.linspace(lo_q, hi_q, 5))


def test_phase_grid_slices_fix_the_other_coordinates():
    hh = get_system("henon_heiles")  # dim 2: state is (qx, qy, px, py)
    pts, meta = phase_grid(hh, points_per_axis=3)
    assert pts.shape == (9, 4)
    # grid axes are the last q (index 1) and last p (index 3)
    assert meta["grid_axes"] == [1, 3]
    assert np.all(pts[:, 0] == 0.0) and np.all(pts[:, 2] == 0.0)
    pts2, meta2 = phase_grid(hh, points_per_axis=3, slices={0: 0.25, 2: -0.5})
    assert np.all(pts2[:, 0] == 0.25) and np.all(pts2[:, 2] == -0.5)
    assert np.array_equal(pts2[:, [1, 3]], pts[:, [1, 3]])
    assert meta2["slices"] == {0: 0.25, 2: -0.5}
    with pytest.raises(ValueError, match="grid axis"):
        phase_grid(hh, points_per_axis=3, slices={1: 0.1})


def test_evaluate_oracle_is_exact():
    cho = get_system("coupled_ho")
    out, points = evaluate_ood(cho.hamiltonian, cho.dynamics, cho,
                               points_per_axis=9)
    assert np.array_equal(points["pts"], phase_grid(cho, 9)[0])
    assert np.array_equal(points["h_pred"], points["h_true"])
    assert not np.any(points["h_err_aligned"]) and not np.any(points["dyn_l2_err"])
    assert out["h_l1_mean"] == 0.0
    assert out["h_l1_max"] == 0.0
    assert out["dyn_l2_mean"] == 0.0
    assert out["offset"] == 0.0
    assert out["n_points"] == 81


def test_value_error_ignores_additive_constants():
    dw = get_system("double_well")

    def shifted(pts):
        return dw.hamiltonian(pts) + 7.25

    out, _ = evaluate_ood(shifted, dw.dynamics, dw, points_per_axis=9)
    assert out["offset"] == pytest.approx(7.25, abs=1e-12)
    assert out["h_l1_mean"] <= 1e-12
    assert out["h_l1_mean_raw"] == pytest.approx(7.25, abs=1e-12)


def test_field_error_reports_mean_pointwise_l2():
    dw = get_system("double_well")

    def skewed(pts):
        return dw.dynamics(pts) + np.array([3.0, 4.0])  # constant 5.0 offset

    out, points = evaluate_ood(dw.hamiltonian, skewed, dw, points_per_axis=5)
    assert out["dyn_l2_mean"] == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(points["dyn_l2_err"], 5.0, atol=1e-12)


def test_energy_drift_zero_steps_and_sho():
    sho = get_system("coupled_ho", alpha=0.0)
    y0 = np.array([1.0, 0.0])
    assert energy_drift(sho.hamiltonian, y0[None]) == 0.0
    traj, _ = integrate(sho.dynamics, y0, 0.01, 500, cfg=FpiConfig(tol=1e-13, max_iters=100))
    # midpoint preserves the quadratic invariant to solver tolerance
    assert energy_drift(sho.hamiltonian, traj.states) <= 1e-10


def test_energy_drift_grows_for_a_nonsymplectic_method():
    # note y0 must not sit at a well minimum or nothing moves
    dw = get_system("double_well")
    y0 = np.array([0.0, 0.8])
    sym, _ = integrate(dw.dynamics, y0, 0.05, 2000)
    rk, _ = integrate(dw.dynamics, y0, 0.05, 2000, method="rk2")
    sym_short = energy_drift(dw.hamiltonian, sym.states[:401])
    sym_long = energy_drift(dw.hamiltonian, sym.states)
    rk_long = energy_drift(dw.hamiltonian, rk.states)
    # the symplectic drift is bounded; the rk2 drift keeps accumulating
    assert sym_long <= 1.01 * sym_short
    assert rk_long > 10 * sym_long
