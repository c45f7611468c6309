"""A tour of the integrator stack: tableau checking, energy behavior, order.

Run from the repository root:

    python3 demos/integrator_tour.py
"""

import numpy as np

from symplearn.evaluation import energy_drift
from symplearn.integrators import (FpiConfig, TABLEAUX,
                                   check_symplectic_tableau,
                                   implicit_midpoint_step, integrate)
from symplearn.systems import get_system


def tableau_verdicts():
    print("== which coefficient pairs are symplectic? ==")
    for name, tableau in TABLEAUX.items():
        rep = check_symplectic_tableau(tableau)
        verdict = "symplectic" if rep.symplectic else "NOT symplectic"
        print(f"  {name:20s} {verdict:16s} max violation {rep.max_violation:.2e}")
    print()


def drift_comparison():
    print("== energy drift on a double-well orbit, short vs long horizon ==")
    dw = get_system("double_well")
    y0 = np.array([0.0, 0.8])
    print(f"  {'method':20s} {'drift T=50':>12s} {'drift T=500':>12s} {'growth':>8s}")
    for method in ("implicit_midpoint", "symplectic_euler", "rk2"):
        traj, _ = integrate(dw.dynamics, y0, 0.05, 10000, method=method)
        short, long = (energy_drift(dw.hamiltonian, traj.states[:n + 1])
                       for n in (1000, 10000))
        print(f"  {method:20s} {short:12.3e} {long:12.3e} {long / short:8.2f}")
    print()
    print("the two symplectic methods oscillate inside a band that never")
    print("widens (growth ~1); RK2 has the same one-step order as the")
    print("midpoint rule but its drift keeps accumulating with time.\n")


def order_of_accuracy():
    print("== global error vs step size on the harmonic oscillator ==")
    sho = get_system("coupled_ho", alpha=0.0)
    y0 = np.array([1.0, 0.0])
    t_end = 1.0
    exact = np.array([np.cos(t_end), -np.sin(t_end)])
    print(f"  {'method':20s} {'err h=0.1':>12s} {'err h=0.05':>12s} {'ratio per halving':>18s}")
    for method in ("implicit_midpoint", "gauss2"):
        errors = {}
        for h in (0.1, 0.05, 0.025):
            n = int(round(t_end / h))
            traj, _ = integrate(sho.dynamics, y0, h, n, method=method,
                                cfg=FpiConfig(tol=1e-14, max_iters=200))
            errors[h] = float(np.max(np.abs(traj.states[-1] - exact)))
        print(f"  {method:20s} {errors[0.1]:12.3e} {errors[0.05]:12.3e} "
              f"{errors[0.05] / errors[0.025]:18.2f}")
    print()
    print("a ratio of ~4 per halving is second order, ~16 is fourth.\n")


def fixed_point_convergence():
    print("== the implicit solve contracts at rate ~h/2 ==")
    sho = get_system("coupled_ho", alpha=0.0)
    y0 = np.array([1.0, 0.0])
    for h in (0.4, 0.2, 0.1):
        cfg = FpiConfig(tol=1e-14, max_iters=100)
        _, rep = implicit_midpoint_step(sho.dynamics, y0, h, cfg)
        ratios = [b / a for a, b in zip(rep.residuals, rep.residuals[1:])
                  if a > 1e-10]
        print(f"  h={h:4.2f}: {rep.iterations} iterations, "
              f"mean contraction {np.mean(ratios):.4f} (h/2 = {h / 2})")


if __name__ == "__main__":
    tableau_verdicts()
    drift_comparison()
    order_of_accuracy()
    fixed_point_convergence()
