"""Side-by-side memory and wall-time profile of the two gradient engines,
the table demos/adjoint_vs_backprop.py prints and c5 holds.

Memory numbers are real bytes (symplearn.memory): recorded backprop from its
taped rollout through its reverse, which keeps every solver iterate's tape
and grows linearly with the window length, and the costate sweep alone, which
re-derives what it needs from the stored states and partials (checkpoints,
not counted) and holds only one step's work buffers, in its net's
buffer set.  Wall time is the minimum over repeats of a full, untraced
loss+gradient evaluation.  Every row runs one regime: a fresh coupled_ho
network (seed 0) on 512 noise-free windows at h = 0.01, where steps take
about one fixed-point sweep, fewer than in training.
"""

import dataclasses
import time

import numpy as np

from .adjoint import solve_adjoint_accumulate
from .data import sample_initial_conditions
from .integrators import REFERENCE_FPI, _check_count, integrate
from .memory import METER
from .model import HamiltonianNet
from .systems import get_system
from .training import TrainConfig, _rollout, loss_and_grad

PROFILE_WINDOW_STEPS = (4, 8, 16, 32)
PROFILE_SYSTEM, PROFILE_BATCH, PROFILE_H = "coupled_ho", 512, 0.01


@dataclasses.dataclass(frozen=True)
class ProfileRow:
    grad_mode: str
    window_steps: int
    peak_bytes: int
    wall_s: float


def profile_windows(system, batch_size, window_steps, h, seed):
    """Noise-free time-major windows [window_steps + 1, B, 2d] from the true
    field: the profile should measure engine overhead, not data quality."""
    _check_count("batch_size", batch_size)
    y0 = sample_initial_conditions(system, batch_size, np.random.default_rng((seed, 4)))
    return integrate(system.dynamics, y0, h, window_steps,
                     method="implicit_midpoint", cfg=REFERENCE_FPI)[0]


def engine_peak(net, theta, windows, h, config):
    """Traced peak bytes of the gradient engine for one batch.  The engine
    runs on a fresh net of net's shape made inside the measured block, so the
    peak counts the buffer set it writes into, whatever net has run before:
    recorded backprop is a whole loss_and_grad, the costate engine its sweep
    alone, after an untraced rollout."""
    if config.grad_mode == "backprop":
        with METER.measure() as block:
            loss_and_grad(HamiltonianNet(net.dim, net.arch[1:-1]), theta, windows, h, config)
        return block.peak_bytes
    _, partials, states, _ = _rollout(net.field(theta), windows, h, config)
    with METER.measure() as block:
        net = HamiltonianNet(net.dim, net.arch[1:-1])
        solve_adjoint_accumulate(net, theta, states, partials, h)
    return block.peak_bytes


def profile_gradient_modes(window_steps=PROFILE_WINDOW_STEPS, repeats=3):
    """Profile both engines over a range of window lengths.

    Same freshly initialized network, same windows, same solver settings for
    both engines at each length; returns a list of ProfileRow.  Tracing
    slows the engines by a third, so the peak comes from a pass of its own.
    """
    system = get_system(PROFILE_SYSTEM)
    net = HamiltonianNet(system.dim)
    theta = net.init_params(0)
    rows = []
    for n_steps in window_steps:
        windows = profile_windows(system, PROFILE_BATCH, n_steps, PROFILE_H, 0)
        for mode in ("adjoint", "backprop"):
            config = TrainConfig(grad_mode=mode, window_steps=n_steps)
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                loss_and_grad(net, theta, windows, PROFILE_H, config)
                best = min(best, time.perf_counter() - t0)
            rows.append(ProfileRow(
                grad_mode=mode, window_steps=n_steps, wall_s=float(best),
                peak_bytes=engine_peak(net, theta, windows, PROFILE_H, config),
            ))
    return rows
