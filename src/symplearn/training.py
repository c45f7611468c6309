"""Window-matching training loop: rollout, squared loss, Adam, plateau schedule.

Training draws short observation windows from stored noisy trajectories,
rolls the model field forward through each window with the implicit midpoint
solver, and matches the predictions against the remaining observations in the
squared sense.  Windows may take every stride-th stored point, so the solver
step is stride * dt; coarsening like this lifts the dynamics signal well
above the observation-noise floor, which at the storage rate would dominate
the loss and leave nothing to optimize.

Gradients come from either engine in `adjoint` (grad_mode 'adjoint' or
'backprop'); both see exactly the same forward map.  At the training solver
stop their gradients on a trained smoke model's batch differ by 1.7e-6 to
4.6e-6 of the largest entry.

Training stops each window's solves at a change of 1e-4 between sweeps
(TrainConfig.fpi), not at FpiConfig()'s 1e-10.  The observations carry
noise of std 0.01: over seeds 0-9 on both smoke workloads the looser stop
moves the trained model's grid error, loss reduction, drift, final
validation loss and val_excess by under 4e-5 of their spread across seeds
(against the 1e-7 stop), and it cuts the forward sweeps of a 6-step window
on the trained models from 25 to 8 (double well) and from 23 to 8
(Henon-Heiles): every step after the first takes one sweep.  Long rollouts
(`eval`, `integrate`) keep FpiConfig()'s tight solve: the energy of a solve
stopped short of round-off drifts over long times (Hairer, Lubich &
Wanner, Geometric Numerical Integration, VIII.5-6).
"""

import dataclasses
import time

import numpy as np

from . import adjoint as adj
from .data import sample_windows, split_dataset
from .integrators import FpiConfig, NonFiniteError, _check_count, _is_finite, integrate
from .model import DEFAULT_HIDDEN, HamiltonianNet, _widths
from .systems import get_system


def window_loss(pred_states, windows):
    """Squared mismatch over a window, skipping the shared initial point.

    pred_states and windows are both time-major [n+1, B, 2d].
    Returns (loss, partials [n, B, 2d]) where loss sums residual squares over
    steps and coordinates and averages over the batch; partials is the
    gradient of that scalar with respect to the predictions.
    """
    pred_states = np.asarray(pred_states, dtype=np.float64)
    obs = np.asarray(windows, dtype=np.float64)
    if pred_states.ndim != 3 or pred_states.shape != obs.shape:
        raise ValueError(
            f"predictions {pred_states.shape} do not line up with windows {obs.shape}"
        )
    scale = 1.0 / obs.shape[1]
    resid = pred_states[1:] - obs[1:]
    loss = float(np.sum(resid ** 2) * scale)
    partials = (2.0 * scale) * resid
    return loss, partials


class Adam:
    """Standard Adam on a flat parameter vector.  A zero gradient moves
    nothing: first and second moments stay zero and the update is exactly 0."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, n_params, lr=0.01):
        self.lr = lr
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReduceOnPlateau:
    """Halve the learning rate after `patience` consecutive epochs without a
    new best validation loss."""

    factor, patience = 0.5, 3

    def __init__(self, lr):
        self.lr = lr
        self.best = np.inf
        self.bad = 0

    def update(self, val_loss):
        if val_loss < self.best:
            self.best = val_loss
            self.bad = 0
        else:
            self.bad += 1
            if self.bad >= self.patience:
                self.lr *= self.factor
                self.bad = 0
        return self.lr


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    grad_mode: str = "adjoint"          # 'adjoint' or 'backprop'
    window_steps: int = 6               # solver steps per training window
    stride: int = 25                    # stored points per solver step
    batch_size: int = 512
    epochs: int = 25
    windows_per_traj: int = 16          # epoch length: n_train * this / batch_size
    lr: float = 0.01
    fpi: FpiConfig = FpiConfig(tol=1e-4)   # looser than FpiConfig(): see the docstring
    hidden: tuple = DEFAULT_HIDDEN
    seed: int = 0
    val_batches: int = 2

    def __post_init__(self):
        """Reject a field of the wrong type or range, naming it."""
        if not (isinstance(self.grad_mode, str) and self.grad_mode in ("adjoint", "backprop")):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        for name, low in (("window_steps", 1), ("stride", 1), ("batch_size", 1),
                          ("epochs", 0), ("windows_per_traj", 1), ("seed", 0),
                          ("val_batches", 1)):
            _check_count(name, getattr(self, name), low)
        if not (_is_finite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a positive finite number, got {self.lr!r}")
        if not isinstance(self.fpi, FpiConfig):
            raise ValueError(f"fpi must be an FpiConfig, got {self.fpi!r}")
        object.__setattr__(self, "hidden", _widths(self.hidden))


def _rollout(field, windows, h, config):
    """Forward half of one batch: roll field from windows[0] through the
    windows [n+1, B, 2d] with training's solver and score the predictions.

    Returns (loss, partials, states, reports).
    """
    states, reports = integrate(field, windows[0], h, len(windows) - 1, cfg=config.fpi)
    loss, partials = window_loss(states, windows)
    return loss, partials, states, reports


def loss_and_grad(net, theta, windows, h, config):
    """One batch: forward rollout, loss, and the parameter gradient.

    Returns (loss, grad, reports) with reports the forward StepReports; every
    forward solve converged (`integrate` raises otherwise) and the costate
    steps are exact solves.
    """
    if config.grad_mode == "backprop":
        record = adj.record_rollout(net, theta, windows[0], h, len(windows) - 1, cfg=config.fpi)
        loss, partials = window_loss(record.states, windows)
        grad, reports = adj.backward_through_record(net, theta, record, partials), record.reports
    else:
        loss, partials, states, reports = _rollout(net.field(theta), windows, h, config)
        grad, _ = adj.solve_adjoint_accumulate(net, theta, states, partials, h)
    return loss, grad, reports


def _forward_loss(field, windows, h, config):
    """field's loss on the windows, no gradient: validation's for the model
    and its noise floor (the true field), the epoch-0 baseline's and c4's."""
    return _rollout(field, windows, h, config)[0]


def saturation_epoch(val_losses):
    """First epoch index (1-based) after which the validation loss improved by
    less than 1% for 3 consecutive epochs; None if it never saturated."""
    rel_improve, patience = 0.01, 3
    quiet = 0
    for i in range(1, len(val_losses)):
        prev, cur = val_losses[i - 1], val_losses[i]
        if prev - cur < rel_improve * abs(prev):
            quiet += 1
            if quiet >= patience:
                return i - patience + 1
        else:
            quiet = 0
    return None


def train(manifest, noisy, config):
    """Fit a Hamiltonian to the noisy trajectories of a loaded dataset.

    A generator: as each epoch ends it yields (row, net, theta), row holding
    the epoch's metrics and theta the parameters after it, from the untouched
    model's epoch 0 on.  Nothing runs until the first record is asked for.
    Validation also rolls the dataset's true field from the same noisy
    starts, and val_excess = val_loss / (true field's loss) - 1 is the
    model's loss above that noise floor.

    Deterministic per (config.seed, config): all sampling comes from seeded
    generators and both gradient engines are single-threaded.  A failed
    solve (non-finite, singular or unconverged) or a non-finite loss or
    gradient raises NonFiniteError with where it happened appended: the
    epoch and batch, the epoch-0 baseline or an epoch's validation.
    """
    net = HamiltonianNet(manifest.dim, hidden=config.hidden)
    truth = get_system(manifest.system, **manifest.system_params).dynamics
    train_traj, val_traj = split_dataset(manifest, noisy)
    if len(val_traj) == 0:
        raise ValueError("dataset has no validation split")
    h = config.stride * manifest.dt

    theta = net.init_params(config.seed)
    adam = Adam(net.n_params, lr=config.lr)
    sched = ReduceOnPlateau(config.lr)
    rng = np.random.default_rng((config.seed, 2))

    batch = min(config.batch_size, len(train_traj) * config.windows_per_traj)
    steps_per_epoch = max(1, (len(train_traj) * config.windows_per_traj) // batch)

    def score(split, stream, *fields):
        """Mean forward losses over val_batches batches of split's windows,
        drawn from stream: the current theta's, then each of fields' on the
        same windows."""
        n = min(batch, len(split) * config.windows_per_traj)
        rows = []
        for _ in range(config.val_batches):
            windows = sample_windows(split, n, config.window_steps, stream,
                                     stride=config.stride)[0]
            rows.append([_forward_loss(f, windows, h, config)
                         for f in (net.field(theta), *fields)])
        return [float(np.mean(losses)) for losses in zip(*rows)]

    for epoch in range(config.epochs + 1):
        t_epoch = time.perf_counter()
        try:
            if epoch == 0:
                # the untouched model, scored on its own stream: the baseline
                # later epochs have to beat
                where = "epoch 0 (baseline)"     # context for a numerical failure
                train_loss = score(train_traj, np.random.default_rng((config.seed, 6)))[0]
            else:
                epoch_losses = []
                for bi in range(steps_per_epoch):
                    where = f"epoch {epoch} batch {bi}"
                    windows, _, _ = sample_windows(
                        train_traj, batch, config.window_steps, rng, stride=config.stride,
                    )
                    loss, grad, _ = loss_and_grad(net, theta, windows, h, config)
                    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                        raise NonFiniteError("non-finite loss or gradient")
                    adam.lr = sched.lr
                    theta = adam.step(theta, grad)
                    epoch_losses.append(loss)
                train_loss = float(np.mean(epoch_losses))
            where = f"epoch {epoch} (validation)"
            vl, floor = score(val_traj, np.random.default_rng((config.seed, 3, epoch)), truth)
        except NonFiniteError as err:
            raise NonFiniteError(f"{err} at {where}") from None
        yield {
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": vl,
            "lr": sched.update(vl) if epoch else sched.lr,
            "wall_time_s": time.perf_counter() - t_epoch,
            "val_excess": vl / floor - 1.0,
        }, net, theta
