"""Window-matching training loop: rollout, squared loss, Adam, plateau schedule.

Training draws short observation windows from stored noisy trajectories,
rolls the model field forward through each window with the implicit midpoint
solver, and matches the predictions against the remaining observations in the
squared sense.  Windows may take every stride-th stored point, so the solver
step is stride * dt; coarsening like this lifts the dynamics signal well
above the observation-noise floor, which at the storage rate would dominate
the loss and leave nothing to optimize.

Gradients come from either engine in `adjoint` (grad_mode 'adjoint' or
'backprop'); both see exactly the same forward map, so the parameter
trajectories they produce stay within solver tolerance of each other.
"""

import dataclasses
import time

import numpy as np

from . import adjoint as adj
from .data import csv_lines, sample_windows, split_dataset
from .integrators import FpiConfig, NonFiniteError, _is_finite, _is_int, integrate
from .model import DEFAULT_HIDDEN, HamiltonianNet


# a batch whose solver steps fail to converge more often than this aborts training
MAX_NONCONVERGED_FRACTION = 0.5


class NumericalAbort(RuntimeError):
    """Training stopped because the numbers went bad, with context attached."""


def window_loss(pred_states, windows):
    """Squared mismatch over a window, skipping the shared initial point.

    pred_states is time-major [n+1, B, 2d], windows batch-major [B, n+1, 2d].
    Returns (loss, partials [n, B, 2d]) where loss sums residual squares over
    steps and coordinates and averages over the batch; partials is the
    gradient of that scalar with respect to the predictions.
    """
    pred_states = np.asarray(pred_states, dtype=np.float64)
    obs = np.swapaxes(np.asarray(windows, dtype=np.float64), 0, 1)
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

    def __init__(self, n_params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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

    def __init__(self, lr, factor=0.5, patience=3):
        self.lr = lr
        self.factor = factor
        self.patience = patience
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
    fpi: FpiConfig = FpiConfig()
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
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (_is_finite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a positive finite number, got {self.lr!r}")
        if not isinstance(self.fpi, FpiConfig):
            raise ValueError(f"fpi must be an FpiConfig, got {self.fpi!r}")
        if not (isinstance(self.hidden, (tuple, list))
                and all(_is_int(w) and w >= 1 for w in self.hidden)):
            raise ValueError(f"hidden must be a sequence of integers >= 1, got {self.hidden!r}")


def _rollout(net, theta, windows, h, config, record=False):
    """Forward half of one batch: roll the model field through the windows
    and score the predictions.

    record=True keeps the network tapes for recorded backprop.  Returns
    (loss, partials, states, reports, record or None).
    """
    n_steps = windows.shape[1] - 1
    y0 = windows[:, 0, :]
    rec = None
    if record:
        rec = adj.record_rollout(net, theta, y0, h, n_steps, cfg=config.fpi)
        states, reports = rec.states, rec.reports
    else:
        traj, reports = integrate(net.field(theta), y0, h, n_steps, cfg=config.fpi)
        states = traj.states
    loss, partials = window_loss(states, windows)
    return loss, partials, states, reports, rec


def loss_and_grad(net, theta, windows, h, config):
    """One batch: forward rollout, loss, and the parameter gradient.

    Returns (loss, grad, converged_fraction) with the fraction taken over the
    forward solver steps; the costate steps are exact solves.
    """
    backprop = config.grad_mode == "backprop"
    loss, partials, states, reports, record = _rollout(net, theta, windows, h, config,
                                                       record=backprop)
    frac = float(np.mean([r.converged for r in reports]))
    if backprop:
        grad = adj.backward_through_record(net, theta, record, partials)
    else:
        grad, _ = adj.solve_adjoint_accumulate(net, theta, states, partials, h)
    return loss, grad, frac


def _forward_loss(net, theta, windows, h, config):
    """Loss only, no gradient; used for validation and the epoch-0 baseline."""
    return _rollout(net, theta, windows, h, config)[0]


@dataclasses.dataclass
class TrainResult:
    theta: np.ndarray
    net: HamiltonianNet
    metrics: list                 # dict rows: epoch, train_loss, val_loss, lr, wall_time_s
    saturation_epoch: int | None


def saturation_epoch(val_losses, rel_improve=0.01, patience=3):
    """First epoch index (1-based) after which the validation loss improved by
    less than rel_improve for patience consecutive epochs; None if it never
    saturated."""
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


def train(manifest, noisy, config, theta0=None):
    """Fit a Hamiltonian to the noisy trajectories of a loaded dataset.

    Deterministic per (config.seed, config): all sampling comes from seeded
    generators and both gradient engines are single-threaded.  Raises
    NumericalAbort (with epoch/batch context) on non-finite numbers or when
    more than half the solver steps of a batch fail to converge.
    """
    net = HamiltonianNet(manifest.dim, hidden=config.hidden)
    train_traj, val_traj = split_dataset(manifest, noisy)
    if len(val_traj) == 0:
        raise ValueError("dataset has no validation split")
    h = config.stride * manifest.dt
    span = config.window_steps * config.stride + 1
    if span > manifest.n_steps + 1:
        raise ValueError(
            f"window needs {span} stored points, dataset has {manifest.n_steps + 1}"
        )

    theta = net.init_params(config.seed) if theta0 is None else np.array(theta0, dtype=np.float64)
    adam = Adam(net.n_params, lr=config.lr)
    sched = ReduceOnPlateau(config.lr)
    rng = np.random.default_rng((config.seed, 2))

    batch = min(config.batch_size, len(train_traj) * config.windows_per_traj)
    steps_per_epoch = max(1, (len(train_traj) * config.windows_per_traj) // batch)

    def val_loss_at(theta_now, epoch):
        rng_val = np.random.default_rng((config.seed, 3, epoch))
        losses = []
        for _ in range(config.val_batches):
            vw, _, _ = sample_windows(
                val_traj, min(batch, len(val_traj) * 4), config.window_steps,
                rng_val, stride=config.stride,
            )
            losses.append(_forward_loss(net, theta_now, vw, h, config))
        return float(np.mean(losses))

    metrics = []
    # epoch 0: the untouched model, so later epochs have a baseline to beat
    t0 = time.perf_counter()
    rng_base = np.random.default_rng((config.seed, 3, 0))
    base_w, _, _ = sample_windows(train_traj, batch, config.window_steps,
                                  rng_base, stride=config.stride)
    try:
        base_train = _forward_loss(net, theta, base_w, h, config)
        base_val = val_loss_at(theta, 0)
    except NonFiniteError as err:
        raise NumericalAbort(f"solver blow-up at epoch 0 (baseline): {err}") from None
    metrics.append({
        "epoch": 0,
        "train_loss": base_train,
        "val_loss": base_val,
        "lr": config.lr,
        "wall_time_s": time.perf_counter() - t0,
    })

    for epoch in range(1, config.epochs + 1):
        t_epoch = time.perf_counter()
        epoch_losses = []
        for bi in range(steps_per_epoch):
            windows, _, _ = sample_windows(
                train_traj, batch, config.window_steps, rng, stride=config.stride,
            )
            try:
                loss, grad, frac = loss_and_grad(net, theta, windows, h, config)
            except NonFiniteError as err:
                raise NumericalAbort(
                    f"solver blow-up at epoch {epoch} batch {bi}: {err}"
                ) from None
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise NumericalAbort(
                    f"non-finite loss or gradient at epoch {epoch} batch {bi}"
                )
            if 1.0 - frac > MAX_NONCONVERGED_FRACTION:
                raise NumericalAbort(
                    f"{100 * (1 - frac):.0f}% of solver steps failed to converge "
                    f"at epoch {epoch} batch {bi} (h={h})"
                )
            adam.lr = sched.lr
            theta = adam.step(theta, grad)
            epoch_losses.append(loss)
        try:
            vl = val_loss_at(theta, epoch)
        except NonFiniteError as err:
            raise NumericalAbort(
                f"solver blow-up at epoch {epoch} (validation): {err}"
            ) from None
        lr_now = sched.update(vl)
        metrics.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": vl,
            "lr": lr_now,
            "wall_time_s": time.perf_counter() - t_epoch,
        })

    sat = saturation_epoch([row["val_loss"] for row in metrics[1:]])
    return TrainResult(theta=theta, net=net, metrics=metrics, saturation_epoch=sat)


def metrics_to_csv(metrics):
    """Per-epoch metrics as CSV text (epoch, train_loss, val_loss, lr, wall_time_s)."""
    header = ["epoch", "train_loss", "val_loss", "lr", "wall_time_s"]
    return "".join(csv_lines(header, ([row[k] for k in header] for row in metrics)))
