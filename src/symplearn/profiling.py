"""Side-by-side memory and wall-time profile of the two gradient engines.

Memory numbers are real bytes (symplearn.memory): recorded backprop from its
taped rollout through its reverse, which keeps every solver iterate's tape
and grows linearly with the window length, and the costate sweep alone, which
re-derives what it needs from the stored states and partials (checkpoints,
not counted) and holds only one step's work buffers, in its net's
workspace.  Wall time is the minimum over repeats of a full, untraced
loss+gradient evaluation.
"""

import dataclasses
import time

import numpy as np

from .adjoint import backward_through_record, solve_adjoint_accumulate
from .data import sample_initial_conditions
from .integrators import REFERENCE_FPI, _is_int, integrate
from .memory import METER
from .model import HamiltonianNet
from .systems import get_system
from .training import TrainConfig, _rollout, loss_and_grad

PROFILE_WINDOW_STEPS = (4, 8, 16, 32)


@dataclasses.dataclass(frozen=True)
class ProfileRow:
    grad_mode: str
    window_steps: int
    batch_size: int
    peak_bytes: int
    wall_s: float
    loss: float


def profile_windows(system, batch_size, window_steps, h, seed):
    """Noise-free windows rolled out from the true field: the profile should
    measure engine overhead, not data quality."""
    if not (_is_int(batch_size) and batch_size >= 1):
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    y0 = sample_initial_conditions(system, batch_size, np.random.default_rng((seed, 4)))
    traj, _ = integrate(system.dynamics, y0, h, window_steps,
                        method="implicit_midpoint", cfg=REFERENCE_FPI)
    return np.ascontiguousarray(np.swapaxes(traj.states, 0, 1))


def engine_peak(net, theta, windows, h, config):
    """(loss, traced peak bytes of the gradient engine) for one batch,
    computed as loss_and_grad computes it.  The engine runs on a fresh net
    of net's shape made inside the measured block, so the peak counts the
    workspace it writes into, whatever net has run before."""
    if config.grad_mode == "adjoint":
        loss, partials, states, _, _ = _rollout(net, theta, windows, h, config)
        with METER.measure() as block:
            net = HamiltonianNet(net.dim, net.arch[1:-1])
            solve_adjoint_accumulate(net, theta, states, partials, h)
        return loss, block.peak_bytes
    with METER.measure() as block:
        net = HamiltonianNet(net.dim, net.arch[1:-1])
        loss, partials, _, _, record = _rollout(net, theta, windows, h, config, record=True)
        backward_through_record(net, theta, record, partials)
    return loss, block.peak_bytes


def profile_gradient_modes(system_name="coupled_ho", batch_size=512,
                           window_steps=PROFILE_WINDOW_STEPS, h=0.01,
                           seed=0, repeats=3):
    """Profile both engines over a range of window lengths.

    Same freshly initialized network, same windows, same solver settings for
    both engines at each length; returns a list of ProfileRow.  Tracing
    slows the engines by a third, so the peak comes from a pass of its own.
    """
    if not (_is_int(repeats) and repeats >= 1):
        raise ValueError(f"repeats must be an integer >= 1, got {repeats!r}")
    if not window_steps:
        raise ValueError(f"window_steps must list at least one length, got {window_steps!r}")
    system = get_system(system_name)
    net = HamiltonianNet(system.dim)
    theta = net.init_params(seed)
    rows = []
    for n_steps in window_steps:
        windows = profile_windows(system, batch_size, n_steps, h, seed)
        for mode in ("adjoint", "backprop"):
            config = TrainConfig(grad_mode=mode, window_steps=n_steps,
                                 epochs=1, seed=seed)
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                loss_and_grad(net, theta, windows, h, config)
                best = min(best, time.perf_counter() - t0)
            loss, peak = engine_peak(net, theta, windows, h, config)
            rows.append(ProfileRow(
                grad_mode=mode, window_steps=n_steps, batch_size=batch_size,
                peak_bytes=peak, wall_s=float(best), loss=float(loss),
            ))
    return rows
