"""Integrator correctness: tableaux, fixed-point behavior, geometry, order."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (LOBATTO3_A_P, LOBATTO3_A_Q, LOBATTO3_B, canonical_j,
                     fd_jacobian, midpoint_linear_exact, per_stage_prk_step,
                     sho_energy, sho_exact, sho_field)

from symplearn.data import sample_initial_conditions
from symplearn import integrators
from symplearn.integrators import (REFERENCE_FPI, SEED_SLOPES, SEED_WEIGHTS, FpiConfig,
                                   NonFiniteError, PrkTableau, TABLEAUX,
                                   check_symplectic_tableau, implicit_midpoint_step, integrate,
                                   prk_step)
from symplearn.systems import get_system

TIGHT = FpiConfig(tol=1e-13, max_iters=100)
LOBATTO3 = PrkTableau(name="lobatto3", a_q=LOBATTO3_A_Q, b_q=LOBATTO3_B,
                      a_p=LOBATTO3_A_P, b_p=LOBATTO3_B)


# ----------------------------------------------------------------------
# tableaux and the symplecticity checker


def test_registry_contents():
    assert sorted(TABLEAUX) == ["explicit_euler", "gauss2", "implicit_midpoint",
                                "rk2", "symplectic_euler"]
    mid = TABLEAUX["implicit_midpoint"]
    assert np.array_equal(mid.a_q, [[0.5]]) and np.array_equal(mid.b_q, [1.0])
    assert np.array_equal(mid.a_p, [[0.5]]) and np.array_equal(mid.b_p, [1.0])

    se = TABLEAUX["symplectic_euler"]
    assert np.array_equal(se.a_q, [[0.0]]) and np.array_equal(se.a_p, [[1.0]])

    rk2 = TABLEAUX["rk2"]
    assert np.array_equal(rk2.a_q, [[0.0, 0.0], [0.5, 0.0]])
    assert np.array_equal(rk2.b_q, [0.0, 1.0]) and rk2.a_p is rk2.a_q

    g2 = TABLEAUX["gauss2"]
    s3 = np.sqrt(3.0)
    assert np.allclose(g2.a_q, [[0.25, 0.25 - s3 / 6], [0.25 + s3 / 6, 0.25]],
                       atol=1e-15)
    assert np.array_equal(g2.b_q, [0.5, 0.5])
    assert g2.stages == 2


@pytest.mark.parametrize("name", ["implicit_midpoint", "symplectic_euler", "gauss2"])
def test_checker_accepts_symplectic_pairs(name):
    report = check_symplectic_tableau(TABLEAUX[name])
    assert report.symplectic
    assert report.max_violation <= 1e-12


def test_checker_tolerates_unequal_nodes():
    # the staggered pair evaluates q- and p-stages at different nodes; that
    # must be reported but must not fail the verdict
    report = check_symplectic_tableau(TABLEAUX["symplectic_euler"])
    assert report.node_mismatch == 1.0
    assert report.symplectic


def test_checker_accepts_lobatto_three_stage_pair():
    # unequal weights make this pair sensitive to the orientation of the
    # transposed term in the coupling condition; a transposed implementation
    # rejects it
    report = check_symplectic_tableau(LOBATTO3)
    assert report.symplectic
    assert report.max_violation <= 1e-15


def test_checker_rejects_explicit_euler_with_violation_exactly_one():
    report = check_symplectic_tableau(TABLEAUX["explicit_euler"])
    assert not report.symplectic
    assert report.max_violation == 1.0
    assert report.coupling_violation == 1.0
    assert report.weight_mismatch == 0.0


def test_checker_reports_corrupted_weight():
    bad = PrkTableau(name="bad", a_q=np.array([[0.5]]), b_q=np.array([0.9]),
                     a_p=np.array([[0.5]]), b_p=np.array([1.0]))
    report = check_symplectic_tableau(bad)
    assert not report.symplectic
    assert report.max_violation == pytest.approx(0.1, abs=1e-12)


def test_fpi_config_validation():
    with pytest.raises(ValueError):
        FpiConfig(tol=0.0)
    with pytest.raises(ValueError):
        FpiConfig(max_iters=0)


# ----------------------------------------------------------------------
# single-step behavior


def test_midpoint_matches_closed_form_linear_solve():
    # for a linear field f(y) = A y one midpoint step is exactly
    # (I - h/2 A)^(-1) (I + h/2 A) y
    alpha = 0.5
    a_matrix = np.array([[alpha, 1.0], [-1.0, -alpha]])
    cho = get_system("coupled_ho", alpha=alpha)
    rng = np.random.default_rng(30)
    for _ in range(5):
        y = rng.uniform(-1, 1, size=2)
        got, report = implicit_midpoint_step(cho.dynamics, y, h=0.2, cfg=TIGHT)
        want = midpoint_linear_exact(a_matrix, y, 0.2)
        assert report.converged
        assert np.max(np.abs(got - want)) <= 1e-12

    sho_a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = np.array([0.7, -0.4])
    got, _ = implicit_midpoint_step(sho_field, y, h=0.2, cfg=TIGHT)
    assert np.max(np.abs(got - midpoint_linear_exact(sho_a, y, 0.2))) <= 1e-12


def test_fpi_contracts_at_half_h_rate():
    # each substitution multiplies the error by about (h/2) * Lipschitz(f);
    # the SHO has Lipschitz constant 1, so ratios sit at h/2
    y = np.array([1.0, 0.0])
    _, report = implicit_midpoint_step(
        sho_field, y, h=0.2,
        cfg=FpiConfig(tol=1e-12, max_iters=100),
    )
    resid = [r for r in report.residuals if r > 1e-10]
    assert len(resid) >= 4
    ratios = [b / a for a, b in zip(resid, resid[1:])]
    assert max(ratios) <= 0.11


def test_zero_field_fixed_point_is_immediate():
    y = np.array([0.3, -0.8])
    got, report = implicit_midpoint_step(lambda s: np.zeros_like(s), y, h=0.5)
    assert np.array_equal(got, y)
    assert report.iterations == 1
    assert report.converged
    assert report.residuals == (0.0,)


def test_midpoint_step_starts_from_the_given_seed():
    # seeded with the exact linear solution, one sweep confirms it
    sho_a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = np.array([0.7, -0.4])
    exact = midpoint_linear_exact(sho_a, y, 0.2)
    got, report = implicit_midpoint_step(sho_field, y, 0.2, TIGHT, start=exact)
    assert report.iterations == 1 and report.converged
    assert np.max(np.abs(got - exact)) <= 1e-15
    with pytest.raises(ValueError, match="start shape"):
        implicit_midpoint_step(sho_field, y, 0.2, TIGHT, start=exact[None])


def test_non_convergence_returns_best_iterate():
    # the steppers flag an unconverged solve; integrate, which every rollout
    # goes through, rejects it naming the step
    cfg = FpiConfig(tol=1e-15, max_iters=2)
    y = np.array([1.0, 0.0])
    _, report = implicit_midpoint_step(sho_field, y, h=0.3, cfg=cfg)
    assert not report.converged
    assert report.iterations == 2
    _, report = prk_step(sho_field, y, 0.3, TABLEAUX["gauss2"], cfg)
    assert not report.converged and report.iterations == 2
    for method in ("implicit_midpoint", "gauss2"):
        with pytest.raises(NonFiniteError,
                           match=r"^step 0 did not converge in 2 sweeps \(last residual "):
            integrate(sho_field, y, 0.3, 3, method=method, cfg=cfg)


def one_step(f, y, h, method):
    traj, _ = integrate(f, y, h, 1, method=method, cfg=TIGHT)
    return traj.states[-1]


def test_staggered_euler_hand_step():
    # the registered pair: p' = p - h q = -0.1 first, then q' = q + h p' = 0.99
    # for the SHO at h = 0.1
    got = one_step(sho_field, np.array([1.0, 0.0]), 0.1, "symplectic_euler")
    assert np.allclose(got, [0.99, -0.1], atol=1e-15)


def test_rk2_hand_step():
    got = one_step(sho_field, np.array([1.0, 0.0]), 0.2, "rk2")
    assert np.allclose(got, [0.98, -0.2], atol=1e-15)


@pytest.mark.parametrize("method,evals", [("rk2", 2), ("explicit_euler", 1)])
def test_explicit_pairs_take_one_evaluation_per_stage(method, evals):
    calls = []

    def counted(y):
        calls.append(1)
        return sho_field(y)

    _, reports = integrate(counted, np.array([1.0, 0.0]), 0.1, 3, method=method)
    assert len(calls) == 3 * evals
    assert [r.iterations for r in reports] == [1, 1, 1]
    assert all(r.converged for r in reports)


@pytest.mark.parametrize("method", ["gauss2", "symplectic_euler"])
@pytest.mark.parametrize("batch", [None, 5])
def test_implicit_pairs_take_one_evaluation_per_sweep(method, batch):
    # the seed evaluates the field at y; every sweep after it evaluates all
    # s stage points in one call on an [s*B, 2d] batch ([s, 2d] for one state)
    hh = get_system("henon_heiles")
    tableau = TABLEAUX[method]
    y = sample_initial_conditions(hh, batch or 1, np.random.default_rng(34))
    y = y if batch else y[0]
    shapes = []

    def counted(points):
        shapes.append(points.shape)
        return hh.dynamics(points)

    _, report = prk_step(counted, y, 0.05, tableau, TIGHT)
    assert report.converged and report.iterations >= 2
    assert len(shapes) == 1 + report.iterations
    assert shapes[0] == y.shape
    assert set(shapes[1:]) == {(tableau.stages * (batch or 1), 4)}


@pytest.mark.parametrize("tableau", [TABLEAUX["gauss2"], LOBATTO3], ids=["gauss2", "lobatto3"])
@pytest.mark.parametrize("name", ["double_well", "henon_heiles"])
@pytest.mark.parametrize("batch", [None, 7])
def test_stacked_step_equals_the_per_stage_oracle(tableau, name, batch):
    # the stacked sweep must reproduce a stage-by-stage loop bit for bit: the
    # same sums in the same order, and so the same sweeps
    system = get_system(name)
    y = sample_initial_conditions(system, batch or 1, np.random.default_rng(35))
    y = y if batch else y[0]
    for h, cfg in ((0.01, REFERENCE_FPI), (-0.1, FpiConfig())):
        got, report = prk_step(system.dynamics, y, h, tableau, cfg)
        want, sweeps = per_stage_prk_step(system.dynamics, y, h, tableau.a_q, tableau.b_q,
                                          tableau.a_p, tableau.b_p, cfg.tol, cfg.max_iters)
        assert report.converged and report.iterations == sweeps
        assert np.array_equal(got, want)


def test_generic_prk_midpoint_agrees_with_specialized_step():
    cho = get_system("coupled_ho")
    y = np.array([0.4, 0.3])
    via_prk, _ = prk_step(cho.dynamics, y, 0.1, TABLEAUX["implicit_midpoint"], cfg=TIGHT)
    direct, _ = implicit_midpoint_step(cho.dynamics, y, 0.1, cfg=TIGHT)
    assert np.max(np.abs(via_prk - direct)) <= 1e-12


@given(k=st.integers(0, len(SEED_WEIGHTS) - 1),
       coeffs=st.lists(st.integers(-1000, 1000), min_size=1, max_size=len(SEED_WEIGHTS)),
       t0=st.integers(-50, 50))
def test_seed_rows_extrapolate_polynomials_exactly(k, coeffs, t0):
    # row k weighs y_n, y_{n-1}, ..., y_{n-k}; on the values of an integer
    # polynomial of degree <= k at consecutive integer times it must land on
    # the next value exactly.  A slope row also weighs the derivative at the
    # oldest node, t0 - k (h f(y_0) at unit step), and must be exact one
    # degree higher.  Every sum here is an exact integer or half-integer in
    # float64
    row = SEED_WEIGHTS[k]
    slope = SEED_SLOPES[k] if k < len(SEED_SLOPES) else 0.0
    assert len(row) == k + 1 and sum(row) == 1.0
    coeffs = coeffs[:k + 1 + (slope != 0.0)]

    def poly(t):
        return float(sum(c * t ** j for j, c in enumerate(coeffs)))

    def slope_at(t):
        return float(sum(j * c * t ** (j - 1) for j, c in enumerate(coeffs) if j))

    got = sum(w * poly(t0 - j) for j, w in enumerate(row)) + slope * slope_at(t0 - k)
    assert got == poly(t0 + 1)


@pytest.mark.parametrize("name", ["double_well", "henon_heiles"])
def test_extrapolated_seed_saves_sweeps(name, monkeypatch):
    # integrate seeds each solve from its stored states; a hand loop of
    # steps started from y_n is the reference it must beat on sweeps and
    # match on states, and the slope and quintic rows must beat the
    # binomial table capped at the quartic row, with no slope, on a 6-step
    # and on a 32-step rollout
    system = get_system(name)
    y0 = sample_initial_conditions(system, 64, np.random.default_rng(80))
    cfg, h = FpiConfig(), 0.025
    traj, reports = integrate(system.dynamics, y0, h, 6, cfg=cfg)
    y, plain = y0, []
    for i in range(6):
        y, rep = implicit_midpoint_step(system.dynamics, y, h, cfg)
        plain.append(rep)
        assert np.max(np.abs(traj.states[i + 1] - y)) <= 1e-9
    assert reports[0] == plain[0]
    assert sum(r.iterations for r in reports) < sum(r.iterations for r in plain)

    def sweeps(n_steps):
        return sum(r.iterations for r in integrate(system.dynamics, y0, h, n_steps,
                                                   cfg=cfg)[1])

    new = sweeps(6), sweeps(32)
    monkeypatch.setattr(integrators, "SEED_WEIGHTS", (
        (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
        (5.0, -10.0, 10.0, -5.0, 1.0)))
    monkeypatch.setattr(integrators, "SEED_SLOPES", ())
    quartic = sweeps(6), sweeps(32)
    # 6 steps: 25 vs 27 (dw), 23 vs 25 (hh); 32 steps: 105 vs 131, 75 vs 103
    assert new[0] < quartic[0] and new[1] < 0.85 * quartic[1]


# ----------------------------------------------------------------------
# geometric properties over many steps


def test_time_reversibility():
    dw = get_system("double_well")
    y0 = np.array([0.9, 0.1])
    fwd, _ = integrate(dw.dynamics, y0, h=0.05, n_steps=100, cfg=TIGHT)
    back, _ = integrate(dw.dynamics, fwd.states[-1], h=-0.05, n_steps=100,
                        cfg=TIGHT)
    assert np.max(np.abs(back.states[-1] - y0)) <= 1e-9


def test_quadratic_invariant_is_conserved_to_roundoff():
    traj, _ = integrate(sho_field, np.array([1.0, 0.0]), h=0.1, n_steps=1000,
                        cfg=FpiConfig(tol=1e-12, max_iters=100))
    drift = np.max(np.abs(sho_energy(traj.states) - 0.5))
    assert drift <= 1e-10


@pytest.mark.parametrize("method,expected,tol_frac", [
    ("implicit_midpoint", 4.0, 0.15),
    ("gauss2", 16.0, 0.25),
])
def test_order_of_accuracy(method, expected, tol_frac):
    y0 = np.array([1.0, 0.0])
    t_end = 1.0

    def global_error(h):
        n = int(round(t_end / h))
        traj, _ = integrate(sho_field, y0, h=h, n_steps=n, method=method,
                            cfg=TIGHT)
        return np.max(np.abs(traj.states[-1] - sho_exact(y0, t_end)))

    ratio = global_error(0.05) / global_error(0.025)
    assert abs(ratio - expected) <= tol_frac * expected


# the symplectic Euler pair is half implicit, so it stays symplectic for the
# non-separable coupled_ho as well
@pytest.mark.parametrize("name", ["double_well", "coupled_ho", "henon_heiles"])
@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss2",
                                    "symplectic_euler"])
def test_one_step_jacobian_is_symplectic(name, method):
    system = get_system(name)
    j = canonical_j(system.dim)
    cfg = FpiConfig(tol=1e-12, max_iters=100)
    rng = np.random.default_rng(31)
    lo, hi = system.bounds[:, 0], system.bounds[:, 1]

    def step(y):
        traj, _ = integrate(system.dynamics, y, h=0.01, n_steps=1,
                            method=method, cfg=cfg)
        return traj.states[-1]

    for _ in range(5):
        y = lo + (hi - lo) * rng.random(system.width)
        m = fd_jacobian(step, y, eps=1e-6)
        assert np.max(np.abs(m.T @ j @ m - j)) <= 1e-6


def test_staggered_euler_jacobian_symplectic_on_separable_system():
    dw = get_system("double_well")
    j = canonical_j(1)
    rng = np.random.default_rng(32)
    for _ in range(5):
        y = rng.uniform(-0.8, 0.8, size=2)
        m = fd_jacobian(
            lambda s: one_step(dw.dynamics, s, 0.01, "symplectic_euler"), y,
            eps=1e-6)
        assert np.max(np.abs(m.T @ j @ m - j)) <= 1e-6


def test_rk2_jacobian_is_not_symplectic():
    # the plain explicit midpoint baseline visibly violates the quadratic
    # form at moderate step size; this guards the test above against being
    # trivially satisfied
    j = canonical_j(1)
    dw = get_system("double_well")
    y = np.array([0.9, 0.3])
    m = fd_jacobian(lambda s: one_step(dw.dynamics, s, 0.5, "rk2"), y, eps=1e-6)
    assert np.max(np.abs(m.T @ j @ m - j)) >= 1e-3


# ----------------------------------------------------------------------
# the trajectory driver


def test_integrate_shapes_and_times():
    traj, reports = integrate(sho_field, np.array([1.0, 0.0]), h=0.25,
                              n_steps=8)
    assert traj.states.shape == (9, 2)
    assert np.allclose(traj.times, 0.25 * np.arange(9), atol=1e-15)
    assert np.array_equal(traj.states[0], [1.0, 0.0])
    assert traj.times.shape == (9,)
    assert len(reports) == 8


def test_integrate_batch_matches_individual_runs():
    rng = np.random.default_rng(33)
    batch = rng.uniform(-1, 1, size=(5, 2))
    together, _ = integrate(sho_field, batch, h=0.1, n_steps=30, cfg=TIGHT)
    for i in range(5):
        solo, _ = integrate(sho_field, batch[i], h=0.1, n_steps=30, cfg=TIGHT)
        assert np.max(np.abs(together.states[:, i, :] - solo.states)) <= 1e-11


def test_integrate_rejects_bad_arguments():
    y0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        integrate(sho_field, y0, h=0.1, n_steps=0)
    with pytest.raises(ValueError):
        integrate(sho_field, y0, h=0.0, n_steps=1)
    with pytest.raises(ValueError):
        integrate(sho_field, y0, h=0.1, n_steps=1, method="leapfrog")
    with pytest.raises(ValueError):
        integrate(sho_field, np.zeros(3), h=0.1, n_steps=1)


def test_nonfinite_blowup_is_reported_with_step_context():
    def exploding(y):
        with np.errstate(over="ignore"):
            return y * 1e4

    with pytest.raises(NonFiniteError) as exc_info:
        integrate(exploding, np.array([1.0, 1.0]), h=10.0, n_steps=50,
                  method="rk2")
    message = str(exc_info.value)
    assert "step" in message and "h=" in message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_midpoint_nonfinite_sweep_raises_with_step_context(bad):
    # a non-finite iterate is caught from the sweep's residual: poison one
    # row of the third sweep of step 2, after finite sweeps and steps
    calls = []

    def poisoned(y):
        calls.append(None)
        f = sho_field(y)
        if len(calls) == sweeps_before + 3:
            f[1, 0] = bad
        return f

    y0 = np.array([[0.3, 0.7], [0.5, -0.2]])
    clean, reports = integrate(sho_field, y0, h=0.1, n_steps=4)
    sweeps_before = sum(r.iterations for r in reports[:2])
    assert reports[2].iterations > 3
    with pytest.raises(NonFiniteError) as exc_info:
        integrate(poisoned, y0, h=0.1, n_steps=4)
    assert "(step 2 of 4, h=0.1)" in str(exc_info.value)


def test_reference_integrator_is_fourth_order_accurate():
    y0 = np.array([0.3, 0.7])
    traj, _ = integrate(sho_field, y0, h=0.01, n_steps=100, method="gauss2",
                        cfg=REFERENCE_FPI)
    assert np.max(np.abs(traj.states[-1] - sho_exact(y0, 1.0))) <= 1e-10
