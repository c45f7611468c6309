"""Benchmark systems: hand-computed energies, field/gradient consistency."""

import numpy as np
import pytest

from oracles import central_diff

from symplearn.integrators import FpiConfig, integrate
from symplearn.systems import SYSTEMS, get_system


def test_hand_computed_energy_values():
    dw = get_system("double_well")
    assert dw.hamiltonian(np.array([1.0, 0.0])) == pytest.approx(-0.25, abs=1e-15)
    assert dw.hamiltonian(np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)

    cho = get_system("coupled_ho", alpha=0.5)
    assert cho.hamiltonian(np.array([1.0, 1.0])) == pytest.approx(1.5, abs=1e-15)
    assert cho.hamiltonian(np.array([1.0, -1.0])) == pytest.approx(0.5, abs=1e-15)

    hh = get_system("henon_heiles")
    got = hh.hamiltonian(np.array([0.1, 0.2, 0.3, 0.4]))
    want = 0.5 * (0.09 + 0.16) + 0.5 * (0.01 + 0.04) + 0.01 * 0.2 - 0.008 / 3.0
    assert got == pytest.approx(want, abs=1e-15)

    sho = get_system("coupled_ho", alpha=0.0)
    assert sho.hamiltonian(np.array([0.6, 0.8])) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_dynamics_is_the_canonical_field_of_h(name):
    system = get_system(name)
    d = system.dim
    rng = np.random.default_rng(20)
    lo, hi = system.bounds[:, 0], system.bounds[:, 1]
    for _ in range(100):
        y = lo + (hi - lo) * rng.random(2 * d)
        grad = central_diff(system.hamiltonian, y, eps=1e-6)
        want = np.concatenate([grad[d:], -grad[:d]])
        got = system.dynamics(y)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_dynamics_batches_like_points():
    for name in sorted(SYSTEMS):
        system = get_system(name)
        rng = np.random.default_rng(21)
        batch = rng.uniform(-0.5, 0.5, size=(6, system.width))
        together = system.dynamics(batch)
        assert together.shape == batch.shape
        for i in range(6):
            assert np.max(np.abs(system.dynamics(batch[i]) - together[i])) <= 1e-15
        vals = system.hamiltonian(batch)
        assert vals.shape == (6,)


def test_registry_and_parameters():
    assert sorted(SYSTEMS) == ["coupled_ho", "double_well", "henon_heiles"]
    # the parameter reaches the closed forms: H(1, 1) = 1/2 + 1/2 + alpha
    cho = get_system("coupled_ho", alpha=0.25)
    assert cho.hamiltonian(np.array([1.0, 1.0])) == 1.25
    assert np.array_equal(cho.dynamics(np.array([1.0, 1.0])), [1.25, -1.25])
    with pytest.raises(ValueError, match="unknown system"):
        get_system("pendulum")


def test_shapes_and_caps():
    for name in sorted(SYSTEMS):
        system = get_system(name)
        assert system.width == 2 * system.dim
        assert system.bounds.shape == (system.width, 2)
        assert np.all(system.bounds[:, 0] < system.bounds[:, 1])
    assert get_system("henon_heiles").ic_energy_cap == pytest.approx(1.0 / 6.0)
    assert get_system("double_well").ic_energy_cap is None


def test_henon_heiles_low_energy_orbit_stays_bounded():
    hh = get_system("henon_heiles")
    y0 = np.array([0.1, 0.2, 0.2981, 0.15])
    e0 = hh.hamiltonian(y0)
    assert e0 < 1.0 / 6.0
    states, _ = integrate(hh.dynamics, y0, h=0.02, n_steps=5000,
                          cfg=FpiConfig(tol=1e-12, max_iters=100))
    assert np.all(np.isfinite(states))
    assert np.max(np.abs(states)) <= 1.5
    energies = hh.hamiltonian(states)
    assert np.max(np.abs(energies - e0)) <= 1e-4
