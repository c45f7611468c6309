"""Benchmark Hamiltonian systems with closed-form energies and fields.

Each system bundles the exact Hamiltonian, the canonical vector field derived
from it by hand, the phase-space box that initial conditions are drawn from,
and (for the chaotic one) an energy cap that keeps sampled orbits in the
bounded regime.  States are flat vectors (q_1..q_d, p_1..p_d).
"""

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HamiltonianSystem:
    name: str
    dim: int
    hamiltonian: Callable          # [..., 2d] -> [...]
    dynamics: Callable             # [..., 2d] -> [..., 2d]
    bounds: np.ndarray             # [2d, 2] per-coordinate (lo, hi)
    ic_energy_cap: float | None = None   # reject sampled states at or above this energy

    @property
    def width(self):
        return 2 * self.dim


def _unit_box(width):
    return np.array([[-1.0, 1.0]] * width)


def double_well(width_scale=1.0):
    """One degree of freedom, quartic double well.

    H = p^2/2 + q^4/4 - q^2/2, so qdot = p and pdot = q - q^3.  Starts are
    drawn from the box [-width_scale, width_scale]^2, so width_scale must be
    positive.
    """
    if not width_scale > 0:
        raise ValueError(f"double_well width_scale must be positive, got {width_scale!r}")

    def hamiltonian(y):
        y = np.asarray(y, dtype=np.float64)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p ** 2 + 0.25 * q ** 4 - 0.5 * q ** 2

    def dynamics(y):
        y = np.asarray(y, dtype=np.float64)
        q, p = y[..., 0], y[..., 1]
        out = np.empty_like(y)
        out[..., 0] = p
        np.subtract(q, q * q * q, out=out[..., 1])
        return out

    return HamiltonianSystem(
        name="double_well",
        dim=1,
        hamiltonian=hamiltonian,
        dynamics=dynamics,
        bounds=_unit_box(2) * width_scale,
    )


def coupled_ho(alpha=0.5):
    """One degree of freedom, harmonic oscillator with a q*p coupling term.

    H = p^2/2 + q^2/2 + alpha*q*p.  The cross term makes the Hamiltonian
    non-separable, which is what the fully implicit integrators are for; it is
    also quadratic, so the implicit midpoint rule conserves it exactly.
    """
    alpha = float(alpha)

    def hamiltonian(y):
        y = np.asarray(y, dtype=np.float64)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p ** 2 + 0.5 * q ** 2 + alpha * q * p

    def dynamics(y):
        y = np.asarray(y, dtype=np.float64)
        q, p = y[..., 0], y[..., 1]
        out = np.empty_like(y)
        np.add(p, alpha * q, out=out[..., 0])
        np.negative(q + alpha * p, out=out[..., 1])
        return out

    return HamiltonianSystem(
        name="coupled_ho",
        dim=1,
        hamiltonian=hamiltonian,
        dynamics=dynamics,
        bounds=_unit_box(2),
    )


def henon_heiles():
    """Two degrees of freedom, cubic potential with chaotic bounded regime.

    H = (px^2 + py^2)/2 + (qx^2 + qy^2)/2 + qx^2*qy - qy^3/3.
    Orbits with H < 1/6 started inside the triangular equipotential stay
    bounded, so sampled initial energies are capped there.
    """

    def hamiltonian(y):
        y = np.asarray(y, dtype=np.float64)
        qx, qy, px, py = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
        return (0.5 * (px ** 2 + py ** 2) + 0.5 * (qx ** 2 + qy ** 2)
                + qx ** 2 * qy - qy ** 3 / 3.0)

    def dynamics(y):
        y = np.asarray(y, dtype=np.float64)
        qx, qy = y[..., 0], y[..., 1]
        out = np.empty_like(y)
        out[..., :2] = y[..., 2:]
        np.subtract(-qx, 2.0 * qx * qy, out=out[..., 2])
        np.add(-qy - qx ** 2, qy ** 2, out=out[..., 3])
        return out

    return HamiltonianSystem(
        name="henon_heiles",
        dim=2,
        hamiltonian=hamiltonian,
        dynamics=dynamics,
        bounds=_unit_box(4),
        ic_energy_cap=1.0 / 6.0,
    )


SYSTEMS = {
    "double_well": double_well,
    "coupled_ho": coupled_ho,
    "henon_heiles": henon_heiles,
}


def get_system(name, **params):
    """Build a registered system by name; params go to its constructor,
    which must take every one of them."""
    try:
        factory = SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}") from None
    accepted = sorted(inspect.signature(factory).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"system {name!r} takes no parameter {unknown}; "
                         f"it accepts {accepted}")
    return factory(**params)
