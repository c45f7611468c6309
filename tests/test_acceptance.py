"""Acceptance gate: one test per shipped claim.

Each test re-checks a headline property of the package at full stated scale
and tolerance, prints a single `criterion N: PASS/FAIL` line with the measured
numbers (surfaced by the -rA summary), and also enforces the claim's runtime
budget.  These intentionally overlap the unit tests: the unit tests probe
pieces at convenient sizes, this file runs the advertised configurations.
"""

import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from symplearn.data import generate_dataset
from symplearn.evaluation import energy_drift, evaluate_ood
from symplearn.integrators import (FpiConfig, TABLEAUX,
                                   check_symplectic_tableau,
                                   implicit_midpoint_step, integrate)
from symplearn.model import HamiltonianNet
from symplearn.profiling import profile_gradient_modes, profile_windows
from symplearn.systems import get_system
from symplearn.training import TrainConfig, _forward_loss, loss_and_grad, train

from oracles import canonical_j, midpoint_linear_exact, sho_exact

TIGHT = FpiConfig(tol=1e-12, max_iters=100)
EXTRA_TIGHT = FpiConfig(tol=1e-14, max_iters=200)

BENCHMARKS = ("double_well", "coupled_ho", "henon_heiles")


def report(num, ok, detail, elapsed, budget):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail} "
            f"[{elapsed:.2f}s of {budget:.0f}s budget]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def fd_step_jacobian(field, y, h, eps=1e-6):
    """Central-difference Jacobian of one implicit-midpoint step at y."""
    w = y.size
    bumps = y[None, :] + np.vstack([np.eye(w), -np.eye(w)]) * eps
    traj, _ = integrate(field, bumps, h, 1, cfg=TIGHT)
    ends = traj.states[1]
    return (ends[:w] - ends[w:]).T / (2.0 * eps)


def test_c1_one_step_map_is_symplectic():
    budget, t0 = 10.0, time.perf_counter()
    worst = 0.0
    for sys_index, name in enumerate(BENCHMARKS):
        system = get_system(name)
        j = canonical_j(system.dim)
        rng = np.random.default_rng((2026, 1, sys_index))
        lo, hi = system.bounds[:, 0], system.bounds[:, 1]
        for _ in range(20):
            y = lo + (hi - lo) * rng.random(2 * system.dim)
            m = fd_step_jacobian(system.dynamics, y, h=0.01)
            defect = float(np.max(np.abs(m.T @ j @ m - j)))
            worst = max(worst, defect)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-6,
           f"max |M'JM - J| over 3 systems x 20 points = {worst:.3e} "
           f"(tolerance 1e-6)", elapsed, budget)


def test_c2_energy_drift_bounded():
    budget, t0 = 30.0, time.perf_counter()
    cho = get_system("coupled_ho", alpha=0.5)
    traj, _ = integrate(cho.dynamics, np.array([0.6, 0.4]), 0.01, 10_000, cfg=EXTRA_TIGHT)
    drift_cho = energy_drift(cho.hamiltonian, traj.states)
    dw = get_system("double_well")
    y0 = np.array([0.0, 0.8])  # a genuine orbit, not a well minimum
    traj, _ = integrate(dw.dynamics, y0, 0.01, 10_000, cfg=EXTRA_TIGHT)
    drift_h = energy_drift(dw.hamiltonian, traj.states)
    drift_half_t = energy_drift(dw.hamiltonian, traj.states[:5_001])
    traj, _ = integrate(dw.dynamics, y0, 0.005, 20_000, cfg=EXTRA_TIGHT)
    drift_h2 = energy_drift(dw.hamiltonian, traj.states)
    ratio = drift_h / drift_h2
    ok = (drift_cho <= 1e-9
          and 4.0 * 0.7 <= ratio <= 4.0 * 1.3
          and drift_h <= 1.2 * drift_half_t)  # no secular trend over T=100
    elapsed = time.perf_counter() - t0
    report(2, ok,
           f"quadratic-invariant drift {drift_cho:.2e} (<=1e-9); double-well "
           f"T=100 drift ratio h/(h/2) = {ratio:.3f} (4 +/- 30%)",
           elapsed, budget)


def test_c3_order_of_accuracy():
    budget, t0 = 10.0, time.perf_counter()
    y0 = np.array([1.0, 0.0])
    t_end = 1.0

    def final_error(method, h):
        n = int(round(t_end / h))
        field = get_system("coupled_ho", alpha=0.0).dynamics
        traj, _ = integrate(field, y0, h, n, method=method, cfg=EXTRA_TIGHT)
        return float(np.max(np.abs(traj.states[-1] - sho_exact(y0, t_end))))

    ratios = {}
    for method in ("implicit_midpoint", "gauss2"):
        ratios[method] = final_error(method, 0.05) / final_error(method, 0.025)
    mid, g2 = ratios["implicit_midpoint"], ratios["gauss2"]
    ok = (4.0 * 0.85 <= mid <= 4.0 * 1.15) and (16.0 * 0.75 <= g2 <= 16.0 * 1.25)
    elapsed = time.perf_counter() - t0
    report(3, ok,
           f"error ratios on halving h: midpoint {mid:.3f} (4 +/- 15%), "
           f"two-stage Gauss {g2:.3f} (16 +/- 25%)", elapsed, budget)


def test_c4_gradient_correctness():
    budget, t0 = 60.0, time.perf_counter()
    system = get_system("coupled_ho")  # width-2 states: the [2, 8, 1] net
    net = HamiltonianNet(system.dim, hidden=(8,))
    theta = net.init_params(0)
    assert net.n_params == 2 * 8 + 8 + 8 * 1 + 1  # pins the [2, 8, 1] shape

    worst_fd, worst_bp = 0.0, 0.0
    for tau in (1, 4):
        windows = profile_windows(system, 4, tau, 0.01, seed=0)
        def cfg(mode):
            return TrainConfig(grad_mode=mode, window_steps=tau,
                               hidden=(8,), fpi=TIGHT)
        _, g_adj, _ = loss_and_grad(net, theta, windows, 0.01, cfg("adjoint"))
        _, g_bp, _ = loss_and_grad(net, theta, windows, 0.01, cfg("backprop"))
        step = 1e-5
        g_fd = np.empty(net.n_params)
        for i in range(net.n_params):
            bump = np.zeros(net.n_params)
            bump[i] = step
            up = _forward_loss(net, theta + bump, windows, 0.01, cfg("adjoint"))
            dn = _forward_loss(net, theta - bump, windows, 0.01, cfg("adjoint"))
            g_fd[i] = (up - dn) / (2.0 * step)
        floor = 1e-6 * max(np.max(np.abs(g_adj)), np.max(np.abs(g_fd)))
        rel_fd = np.max(np.abs(g_adj - g_fd)
                        / np.maximum(np.maximum(np.abs(g_adj), np.abs(g_fd)), floor))
        rel_bp = np.max(np.abs(g_adj - g_bp)
                        / np.maximum(np.maximum(np.abs(g_adj), np.abs(g_bp)), floor))
        worst_fd = max(worst_fd, float(rel_fd))
        worst_bp = max(worst_bp, float(rel_bp))
    ok = worst_fd <= 1e-4 and worst_bp <= 1e-6
    elapsed = time.perf_counter() - t0
    report(4, ok,
           f"costate gradient vs finite differences {worst_fd:.3e} (<=1e-4), "
           f"vs recorded backprop {worst_bp:.3e} (<=1e-6), windows of 1 and 4 "
           f"steps", elapsed, budget)


def test_c5_memory_footprint_shapes():
    """Peaks are real bytes, the tracemalloc peak of each gradient engine
    alone (profiling.engine_peak): the costate sweep given an untraced
    rollout's states and partials, and recorded backprop from its taped
    rollout through its reverse.  The stored states and partials grow with
    the window; they are checkpoint storage, which the constant-memory claim
    excludes, so the costate peak does not count them."""
    budget, t0 = 300.0, time.perf_counter()
    rows = profile_gradient_modes(system_name="coupled_ho", batch_size=512,
                                  window_steps=(4, 8, 16, 32), h=0.01,
                                  repeats=1)
    peaks = {(r.grad_mode, r.window_steps): r.peak_bytes for r in rows}
    adj_ratio = peaks[("adjoint", 32)] / peaks[("adjoint", 4)]
    bp_series = [peaks[("backprop", n)] for n in (4, 8, 16, 32)]
    bp_increasing = all(b > a for a, b in zip(bp_series, bp_series[1:]))
    bp_ratio = bp_series[-1] / bp_series[0]
    ok = adj_ratio <= 1.10 and bp_increasing and bp_ratio >= 2.0
    elapsed = time.perf_counter() - t0
    report(5, ok,
           f"costate peak 32 vs 4 steps = {adj_ratio:.3f}x (<=1.10); recorded "
           f"backprop peaks {bp_series} strictly increasing, 32/4 = "
           f"{bp_ratio:.2f}x (>=2)", elapsed, budget)


def test_c6_desk_scale_learning(tmp_path):
    budget, t0 = 900.0, time.perf_counter()
    manifest, _, noisy = generate_dataset("double_well", tmp_path / "ds",
                                          seed=0, n_train=1024, n_val=256)
    result = train(manifest, noisy, TrainConfig(epochs=10))
    reduction = (result.metrics[0]["train_loss"]
                 / result.metrics[-1]["train_loss"])
    net, theta = result.net, result.theta
    grid, _ = evaluate_ood(lambda p: net.eval_h(theta, p),
                        lambda p: net.dynamics(theta, p),
                        get_system("double_well"))
    ok = grid["h_l1_mean"] <= 0.05 and reduction >= 10.0
    elapsed = time.perf_counter() - t0
    report(6, ok,
           f"smoke preset (1024 trajectories, 10 epochs): off-distribution "
           f"value error {grid['h_l1_mean']:.4f} on the 33x33 grid (<=0.05), "
           f"train loss reduced {reduction:.2f}x (>=10x)", elapsed, budget)


def test_c7_fixed_point_contraction():
    budget, t0 = 1.0, time.perf_counter()
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # unit oscillator: f = A y
    y0 = np.array([1.0, 0.0])
    h = 0.2
    cfg = FpiConfig(tol=1e-14, max_iters=100)
    y1, rep = implicit_midpoint_step(lambda y: y @ a.T, y0, h, cfg)
    res = [r for r in rep.residuals if r > 1e-10]
    ratios = [b / a_ for a_, b in zip(res, res[1:])]
    exact = midpoint_linear_exact(a, y0, h)
    gap = float(np.max(np.abs(y1 - exact)))
    ok = (len(ratios) >= 3 and max(ratios) <= 0.11 and gap <= 1e-12)
    elapsed = time.perf_counter() - t0
    report(7, ok,
           f"iterate-change ratios max {max(ratios):.4f} (<=0.11, ~h/2), "
           f"converged point vs closed-form 2x2 solve {gap:.2e} (<=1e-12)",
           elapsed, budget)


def test_c8_tableau_checker_verdicts():
    budget, t0 = 1.0, time.perf_counter()
    accepted = {}
    for name in ("implicit_midpoint", "symplectic_euler", "gauss2"):
        rep = check_symplectic_tableau(TABLEAUX[name])
        accepted[name] = (rep.symplectic, rep.max_violation)
    euler = check_symplectic_tableau(TABLEAUX["explicit_euler"])
    ok = (all(flag and viol <= 1e-12 for flag, viol in accepted.values())
          and not euler.symplectic and euler.max_violation == 1.0)
    elapsed = time.perf_counter() - t0
    report(8, ok,
           f"accepts midpoint/staggered Euler/Gauss (violations "
           f"{[f'{v:.1e}' for _, v in accepted.values()]}), rejects the "
           f"explicit Euler pair with violation exactly "
           f"{euler.max_violation}", elapsed, budget)


def test_c9_pipeline_determinism(tmp_path, package_env):
    budget, t0 = 300.0, time.perf_counter()
    work = tmp_path / "work"
    ds, tr, ev = work / "ds", work / "train", work / "eval"

    def run_pipeline():
        # both runs use the same paths (so path-echoing fields like the eval
        # report's source compare byte-for-byte); artifacts are snapshotted
        # between runs
        steps = [
            ["gen-data", "--system", "double_well", "--n-train", "32",
             "--n-val", "8", "--n-steps", "60", "--seed", "5",
             "--out-dir", str(ds)],
            ["train", "--data", str(ds), "--window-steps", "2", "--stride",
             "10", "--batch-size", "16", "--epochs", "1",
             "--windows-per-traj", "4", "--hidden", "8", "--lr", "0.02",
             "--val-batches", "1", "--seed", "3", "--out-dir", str(tr)],
            ["eval", "--checkpoint", str(tr / "model.json"), "--system",
             "double_well", "--grid-points", "17", "--drift-steps", "100",
             "--seed", "3", "--out-dir", str(ev)],
        ]
        for argv in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "symplearn", *argv, "--threads", "1"],
                capture_output=True, text=True, env=package_env)
            assert proc.returncode == 0, proc.stderr

    artifacts = ("ds/manifest.json", "ds/clean.f64", "ds/noisy.f64",
                 "train/model.json", "train/model.bin",
                 "eval/eval.json", "eval/grid.csv")
    run_pipeline()
    first = {rel: (work / rel).read_bytes() for rel in artifacts}
    first_metrics = (tr / "metrics.csv").read_text()
    shutil.rmtree(work)
    run_pipeline()

    identical = [first[rel] == (work / rel).read_bytes() for rel in artifacts]

    def without_walltime(text):
        return [",".join(ln.split(",")[:-1])
                for ln in text.strip().splitlines()]

    identical.append(without_walltime(first_metrics)
                     == without_walltime((tr / "metrics.csv").read_text()))
    ok = all(identical)
    elapsed = time.perf_counter() - t0
    report(9, ok,
           f"two single-threaded gen-data/train/eval pipeline runs: "
           f"{sum(identical)}/{len(identical)} artifacts byte-identical "
           f"(metrics compared without wall-clock)", elapsed, budget)
