"""Window loss, optimizer pieces, and the training loop."""

import ast
import collections
import dataclasses
import pathlib
import platform
import resource
import subprocess
import sys
import types

import numpy as np
import pytest

import symplearn
from symplearn.adjoint import (backward_through_record, record_rollout,
                               solve_adjoint_accumulate)
from symplearn.data import (generate_dataset, load_dataset, sample_windows, split_dataset,
                            write_csv)
from symplearn.integrators import FpiConfig, NonFiniteError
from symplearn.model import HamiltonianNet
from symplearn.profiling import profile_windows
from symplearn.systems import get_system
from symplearn.training import (Adam, ReduceOnPlateau, TrainConfig, _forward_loss, _rollout,
                                loss_and_grad, saturation_epoch, train, window_loss)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-ds") / "ds"
    generate_dataset("double_well", root, seed=7, n_train=8, n_val=2,
                     n_steps=60)
    return load_dataset(root)


def drain(manifest, noisy, config):
    """Run train() to the end: its rows as metrics, with the last record's
    net and theta."""
    metrics = []
    for row, net, theta in train(manifest, noisy, config):
        metrics.append(row)
    return types.SimpleNamespace(metrics=metrics, net=net, theta=theta)


def tiny_config(**overrides):
    base = dict(window_steps=2, stride=10, batch_size=8, epochs=3,
                windows_per_traj=8, lr=0.02, hidden=(8,), seed=1,
                val_batches=1)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------- window loss

def test_window_loss_hand_example():
    pred = np.array([[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]])  # [n+1, 1, 2]
    obs = np.array([[[9.0, 9.0]], [[3.5, 4.0]], [[5.0, 7.0]]])   # [n+1, 1, 2]
    loss, partials = window_loss(pred, obs)
    # the shared initial point is excluded: the (1,2) vs (9,9) gap is free
    assert loss == pytest.approx(0.5 ** 2 + 1.0 ** 2)
    assert partials.shape == (2, 1, 2)
    assert np.allclose(partials, [[[-1.0, 0.0]], [[0.0, -2.0]]])


def test_window_loss_matches_finite_differences():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(4, 3, 2))
    obs = rng.normal(size=(3, 4, 2)).swapaxes(0, 1)
    loss, partials = window_loss(pred, obs)
    eps = 1e-6
    # partials[k] is the sensitivity to pred[k + 1] (the initial point is free)
    for idx in [(1, 0, 0), (2, 2, 1), (3, 1, 0)]:
        bumped = pred.copy()
        bumped[idx] += eps
        up, _ = window_loss(bumped, obs)
        bumped[idx] -= 2 * eps
        down, _ = window_loss(bumped, obs)
        fd = (up - down) / (2 * eps)
        assert abs(partials[idx[0] - 1, idx[1], idx[2]] - fd) <= 1e-7


def test_window_loss_batch_mean_and_scale_override():
    # the loss and its partials carry the 1/B of a batch mean
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(3, 4, 2))
    obs = rng.normal(size=(4, 3, 2)).swapaxes(0, 1)
    loss_mean, part_mean = window_loss(pred, obs)
    resid = pred[1:] - obs[1:]
    assert loss_mean == pytest.approx(np.sum(resid ** 2) / 4.0)
    assert np.allclose(part_mean, 2.0 * resid / 4.0)
    # the mean equals the average of the per-window sums (batches of one)
    singles = [window_loss(pred[:, b:b + 1], obs[:, b:b + 1]) for b in range(4)]
    assert loss_mean == pytest.approx(np.mean([loss for loss, _ in singles]))
    assert np.allclose(part_mean, np.concatenate([p for _, p in singles], axis=1) / 4.0)


def test_window_loss_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="line up"):
        window_loss(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(ValueError, match="line up"):   # one unbatched window
        window_loss(np.zeros((2, 2)), np.zeros((2, 2)))


# ------------------------------------------------------------------ optimizer

def test_adam_zero_gradient_is_exact_noop():
    adam = Adam(5, lr=0.3)
    theta = np.linspace(-1.0, 1.0, 5)
    out = adam.step(theta, np.zeros(5))
    assert np.array_equal(out, theta)
    out = adam.step(out, np.zeros(5))
    assert np.array_equal(out, theta)


def test_adam_first_step_closed_form():
    adam = Adam(2, lr=0.1)
    theta = np.array([1.0, -2.0])
    grad = np.array([3.0, -0.5])
    out = adam.step(theta, grad)
    # bias correction makes the first step lr * g / (|g| + eps)
    expect = theta - 0.1 * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(out, expect, rtol=0, atol=1e-15)


def test_reduce_on_plateau_schedule():
    sched = ReduceOnPlateau(1.0)
    assert sched.update(1.0) == 1.0      # first value is the best so far
    assert sched.update(0.5) == 1.0      # new best
    assert sched.update(0.6) == 1.0      # bad 1
    assert sched.update(0.7) == 1.0      # bad 2
    assert sched.update(0.55) == 0.5     # bad 3 -> halve
    assert sched.update(0.4) == 0.5      # new best, counter reset
    assert sched.update(0.41) == 0.5
    assert sched.update(0.42) == 0.5
    assert sched.update(0.43) == 0.25


# -------------------------------------------------------------- configuration

def test_train_config_validation():
    with pytest.raises(ValueError, match="grad_mode"):
        TrainConfig(grad_mode="forward")
    with pytest.raises(ValueError):
        TrainConfig(window_steps=0)
    for bad in ({"batch_size": 0}, {"windows_per_traj": 0}, {"val_batches": 0},
                {"epochs": -1}, {"lr": float("nan")}, {"lr": 0.0},
                {"lr": float("inf")}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    assert TrainConfig(epochs=0).epochs == 0


@pytest.mark.parametrize("grad_mode", ["adjoint", "backprop"])
def test_each_sweep_evaluates_the_field_once(tiny_dataset, monkeypatch, grad_mode):
    # a field evaluation is one input reverse, so counting _reverse_input
    # counts the solver's sweeps, taped or not; neither gradient engine's
    # reverse evaluates the field again
    calls = []
    original = HamiltonianNet._reverse_input

    def counted(self, *args):
        calls.append(None)
        return original(self, *args)
    monkeypatch.setattr(HamiltonianNet, "_reverse_input", counted)
    manifest, _, noisy = tiny_dataset
    windows, _, _ = sample_windows(noisy, 8, 4, np.random.default_rng(5), stride=10)
    net = HamiltonianNet(1, hidden=(8,))
    theta = net.init_params(0)
    config = tiny_config(grad_mode=grad_mode, window_steps=4)
    h = config.stride * manifest.dt
    backprop = grad_mode == "backprop"
    if backprop:
        record = record_rollout(net, theta, windows[0], h, config.window_steps,
                                cfg=config.fpi)
        partials, reports = window_loss(record.states, windows)[1], record.reports
    else:
        _, partials, states, reports = _rollout(net.field(theta), windows, h, config)
    sweeps = sum(r.iterations for r in reports)
    assert sweeps > len(reports)
    assert len(calls) == sweeps
    if backprop:
        backward_through_record(net, theta, record, partials)
    else:
        solve_adjoint_accumulate(net, theta, states, partials, h)
    assert len(calls) == sweeps


# -------------------------------------------------------------- training loop

def test_train_reduces_loss_and_reports_metrics(tiny_dataset):
    manifest, _, noisy = tiny_dataset
    config = tiny_config()
    result = drain(manifest, noisy, config)
    assert result.theta.shape == (result.net.n_params,)
    assert len(result.metrics) == 4  # epoch 0 baseline + 3 epochs
    assert [row["epoch"] for row in result.metrics] == [0, 1, 2, 3]
    for row in result.metrics:
        assert list(row) == ["epoch", "train_loss", "val_loss", "lr", "wall_time_s",
                             "val_excess"]
        assert np.isfinite(row["train_loss"]) and np.isfinite(row["val_loss"])
        assert np.isfinite(row["val_excess"])
    # the logged epoch losses come from different batches, whose spread is
    # about what three epochs gain here, so both thetas are scored on one
    # fixed sample of training windows
    train_traj, _ = split_dataset(manifest, noisy)
    windows, _, _ = sample_windows(train_traj, 256, config.window_steps,
                                   np.random.default_rng(0), stride=config.stride)
    h = config.stride * manifest.dt
    theta0 = result.net.init_params(config.seed)
    assert (_forward_loss(result.net.field(result.theta), windows, h, config)
            < _forward_loss(result.net.field(theta0), windows, h, config))


def test_true_field_scores_zero_excess(tiny_dataset, monkeypatch):
    # val_excess compares the model's validation loss with the true field's
    # on the same windows and solver, so a model that is the true field
    # reads exactly 0
    manifest, _, noisy = tiny_dataset
    truth = get_system(manifest.system, **manifest.system_params).dynamics
    monkeypatch.setattr(HamiltonianNet, "field", lambda self, theta: truth)
    (row,) = drain(manifest, noisy, tiny_config(epochs=0)).metrics
    assert row["val_excess"] == 0.0
    assert row["val_loss"] > 0.0


def test_only_validation_rolls_the_true_field(tiny_dataset, monkeypatch):
    # the true field's loss is val_excess's noise floor, a validation figure:
    # epoch 0's baseline on training windows rolls the model alone
    import symplearn.training as tr
    manifest, _, noisy = tiny_dataset
    system = get_system(manifest.system, **manifest.system_params)
    monkeypatch.setattr(tr, "get_system", lambda name, **params: system)
    fields, integrate = [], tr.integrate

    def recorded(f, *args, **kwargs):
        fields.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(tr, "integrate", recorded)
    config = tiny_config(epochs=0, val_batches=2)
    drain(manifest, noisy, config)
    # baseline, validation and floor, one batch each per val batch
    assert len(fields) == 3 * config.val_batches
    assert sum(f is system.dynamics for f in fields) == config.val_batches


def test_train_is_deterministic(tiny_dataset):
    manifest, _, noisy = tiny_dataset
    a = drain(manifest, noisy, tiny_config(epochs=2))
    b = drain(manifest, noisy, tiny_config(epochs=2))
    assert np.array_equal(a.theta, b.theta)
    assert [r["train_loss"] for r in a.metrics] == \
           [r["train_loss"] for r in b.metrics]


def test_zero_epochs_returns_the_initialization(tiny_dataset):
    manifest, _, noisy = tiny_dataset
    cfg = tiny_config(epochs=0)
    result = drain(manifest, noisy, cfg)
    net = HamiltonianNet(manifest.dim, hidden=cfg.hidden)
    assert np.array_equal(result.theta, net.init_params(cfg.seed))
    assert len(result.metrics) == 1 and result.metrics[0]["epoch"] == 0


def test_each_record_holds_its_own_epochs_parameters(tiny_dataset):
    # later epochs leave a yielded theta alone, and a record of epoch 1 is
    # what a one-epoch run ends with
    manifest, _, noisy = tiny_dataset
    records = list(train(manifest, noisy, tiny_config(epochs=2)))
    one = drain(manifest, noisy, tiny_config(epochs=1))
    assert [row["epoch"] for row, _, _ in records] == [0, 1, 2]
    assert np.array_equal(records[1][2], one.theta)
    assert not np.array_equal(records[1][2], records[2][2])
    assert [row["val_loss"] for row, _, _ in records[:2]] == \
           [row["val_loss"] for row in one.metrics]


def test_grad_modes_agree_on_first_epoch_loss(tiny_dataset):
    manifest, _, noisy = tiny_dataset
    adj = drain(manifest, noisy, tiny_config(epochs=1, grad_mode="adjoint"))
    bp = drain(manifest, noisy, tiny_config(epochs=1, grad_mode="backprop"))
    la = adj.metrics[1]["train_loss"]
    lb = bp.metrics[1]["train_loss"]
    assert abs(la - lb) <= 1e-5 * abs(la)


def test_mid_training_blowup_aborts_with_epoch_and_batch(tiny_dataset,
                                                         monkeypatch):
    # the numeric triggers for NonFiniteError live in the solver tests; here
    # we check that train() attaches epoch/batch context when one escapes a
    # batch (a healthy tanh net saturates instead of overflowing, so the
    # trigger is injected)
    import symplearn.training as tr
    manifest, _, noisy = tiny_dataset

    def boom(*args, **kwargs):
        raise NonFiniteError("synthetic overflow")

    monkeypatch.setattr(tr, "loss_and_grad", boom)
    with pytest.raises(NonFiniteError, match="epoch 1 batch 0"):
        drain(manifest, noisy, tiny_config(epochs=1))


def test_nonfinite_gradient_aborts(tiny_dataset, monkeypatch):
    import symplearn.training as tr
    manifest, _, noisy = tiny_dataset
    net = HamiltonianNet(manifest.dim, hidden=(8,))

    def bad_grad(net_, theta, windows, h, config):
        return 0.5, np.full(net.n_params, np.inf), []

    monkeypatch.setattr(tr, "loss_and_grad", bad_grad)
    with pytest.raises(NonFiniteError, match="non-finite.*epoch 1 batch 0"):
        drain(manifest, noisy, tiny_config(epochs=1))


def test_validation_blowup_names_the_epoch(tiny_dataset, monkeypatch):
    # the baseline scores one training batch, then epoch 0's validation
    # scores one batch for the model and its noise floor; the fourth
    # forward-only loss is epoch 1's validation
    import symplearn.training as tr
    manifest, _, noisy = tiny_dataset
    calls = []
    forward_loss = tr._forward_loss

    def fourth_fails(*args):
        calls.append(1)
        if len(calls) == 4:
            raise NonFiniteError("synthetic overflow")
        return forward_loss(*args)

    monkeypatch.setattr(tr, "_forward_loss", fourth_fails)
    with pytest.raises(NonFiniteError, match=r"epoch 1 \(validation\)"):
        drain(manifest, noisy, tiny_config(epochs=1))


def test_baseline_and_validation_draw_from_their_own_streams(tiny_dataset, monkeypatch):
    # epoch 0 samples the baseline's training windows, then validation's;
    # both splits hold trajectories of one length, so one stream would give
    # both the same start indices
    import symplearn.training as tr
    manifest, _, noisy = tiny_dataset
    starts = []

    def recorded(*args, **kwargs):
        out = sample_windows(*args, **kwargs)
        starts.append(out[2])
        return out

    monkeypatch.setattr(tr, "sample_windows", recorded)
    drain(manifest, noisy, tiny_config(epochs=0))
    assert len(starts) == 2
    assert not np.array_equal(starts[0], starts[1])


def test_each_stream_tag_has_one_call_site():
    # a seeded draw is default_rng((seed, tag, ...)); two call sites that
    # share a constant tag draw the same numbers; README's Determinism
    # section lists the tags
    sites = collections.defaultdict(list)
    for path in sorted(pathlib.Path(symplearn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "default_rng"
                    and node.args and isinstance(node.args[0], ast.Tuple)
                    and isinstance(node.args[0].elts[1], ast.Constant)):
                sites[node.args[0].elts[1].value].append(f"{path.name}:{node.lineno}")
    assert {tag: where for tag, where in sites.items() if len(where) > 1} == {}
    assert sorted(sites) == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("grad_mode", ["adjoint", "backprop"])
def test_one_net_serves_every_batch_size_as_fresh_nets_do(grad_mode, dim):
    # one net keeps one buffer set and replaces it when the
    # batch size changes; calls at 512, 7 and 512 rows on one net, each at
    # its own theta, must equal, bit for bit, the same calls each on a net
    # of its own
    system = get_system({1: "double_well", 2: "henon_heiles"}[dim])
    config = TrainConfig(grad_mode=grad_mode)
    shared = HamiltonianNet(dim)
    for i, batch in enumerate((512, 7, 512)):
        theta = shared.init_params(3 + i)
        windows = profile_windows(system, batch, 4, 0.05, seed=i)
        loss, grad, _ = loss_and_grad(shared, theta, windows, 0.05, config)
        ref_loss, ref_grad, _ = loss_and_grad(HamiltonianNet(dim), theta, windows, 0.05, config)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def test_training_default_takes_fewer_sweeps_than_the_fpi_default():
    # training stops its solves looser than FpiConfig(); a path that sent
    # training back through FpiConfig() would pay the saved sweeps again
    system = get_system("double_well")
    net = HamiltonianNet(system.dim)
    theta = net.init_params(0)
    windows = profile_windows(system, 64, 6, 0.025, seed=0)
    sweeps = [sum(r.iterations for r in loss_and_grad(net, theta, windows, 0.025, config)[2])
              for config in (TrainConfig(), TrainConfig(fpi=FpiConfig()))]
    assert sweeps[0] < sweeps[1]


@pytest.mark.parametrize("system", ["double_well", "henon_heiles"])
def test_training_default_stays_near_a_tight_solve_on_a_trained_model(tmp_path, system):
    # a briefly trained model's field is strong enough that the training
    # stop saves sweeps on training-shaped windows (6 steps of stride 25):
    # 8 against 30 (double well) and 28 (Henon-Heiles) for a tol-1e-12
    # solve.  Loss and gradient of both engines must stay near the tight
    # backprop ones; on the bench's seed-0 and seed-1 batches of the trained
    # smoke models they moved by at most 5.8e-7 (loss, relative) and 4.8e-5
    # (gradient, of its largest entry), and here by at most 2.0e-7 and
    # 5.3e-6.  A stop at 1e-3 moves the double well's by 2.8e-6 and 1.4e-4
    generate_dataset(system, tmp_path / "ds", seed=3, n_train=16, n_val=4, n_steps=150)
    manifest, _, noisy = load_dataset(tmp_path / "ds")
    config = TrainConfig(hidden=(16, 16), epochs=10, batch_size=64, lr=0.02, val_batches=1)
    result = drain(manifest, noisy, config)
    windows, _, _ = sample_windows(split_dataset(manifest, noisy)[0], 64, 6,
                                   np.random.default_rng(0), stride=25)
    h = 25 * manifest.dt
    tight = dataclasses.replace(config, grad_mode="backprop",
                                fpi=FpiConfig(tol=1e-12, max_iters=100))
    ref_loss, ref_grad, ref_reports = loss_and_grad(result.net, result.theta, windows, h, tight)
    scale = np.max(np.abs(ref_grad))
    for mode in ("adjoint", "backprop"):
        loss, grad, reports = loss_and_grad(result.net, result.theta, windows, h,
                                            dataclasses.replace(config, grad_mode=mode))
        assert sum(r.iterations for r in reports) < sum(r.iterations for r in ref_reports)
        assert abs(loss - ref_loss) <= 1e-6 * ref_loss
        assert np.max(np.abs(grad - ref_grad)) <= 1e-4 * scale


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts are calibrated for Linux with glibc malloc")
@pytest.mark.parametrize("grad_mode", ["adjoint", "backprop"])
def test_training_batches_fault_in_no_fresh_memory(tmp_path, package_env, grad_mode):
    # a fresh process must not hand its working memory back to the kernel
    # between batches: two epochs of 8 batches of 512 windows may take at
    # most 2,000 minor faults beyond the same run with no epoch (about 250
    # with the net's buffer set; freeing each pass's buffers took about
    # 23,000).  Recorded backprop writes each batch's tapes over the ones
    # the last reverse handed back, and is held to 1,000: it reads about
    # 660, against about 1,260 with a fresh tape per sweep
    generate_dataset("double_well", tmp_path / "ds", seed=0, n_train=128, n_val=16,
                     n_steps=160)

    def faults(epochs):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "symplearn", "train", "--data", str(tmp_path / "ds"),
                        "--epochs", str(epochs), "--batch-size", "512", "--threads", "1",
                        "--grad-mode", grad_mode, "--seed", "0",
                        "--out-dir", str(tmp_path / f"fit{epochs}")],
                       env=package_env, check=True, capture_output=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    assert faults(2) - faults(0) <= (1000 if grad_mode == "backprop" else 2000)


def test_unconverged_solve_raises_non_finite_error(tiny_dataset):
    # two sweeps cannot reach tol = 1e-10 from a fresh net, and the costate
    # gradient of a rollout with unconverged steps is not the gradient of the
    # computed loss, so both engines stop at step 0, and train says where
    system = get_system("coupled_ho")
    net = HamiltonianNet(system.dim)
    theta = net.init_params(0)
    windows = profile_windows(system, 64, 6, 0.1, 0)
    for mode in ("adjoint", "backprop"):
        config = TrainConfig(grad_mode=mode, window_steps=6, fpi=FpiConfig(max_iters=2))
        with pytest.raises(NonFiniteError, match="^step 0 did not converge in 2 sweeps"):
            loss_and_grad(net, theta, windows, 0.1, config)
    manifest, _, noisy = tiny_dataset
    with pytest.raises(NonFiniteError,
                       match=r"^step 0 did not converge in 2 sweeps .* at epoch 0 \(baseline\)$"):
        drain(manifest, noisy, tiny_config(epochs=1, fpi=FpiConfig(max_iters=2)))


def test_train_rejects_windows_longer_than_trajectories(tiny_dataset):
    manifest, _, noisy = tiny_dataset
    with pytest.raises(ValueError, match="stored points"):
        drain(manifest, noisy, tiny_config(window_steps=7, stride=10))


# ------------------------------------------------------------------ reporting

def test_saturation_epoch_cases():
    # steady halving never saturates
    assert saturation_epoch([1.0, 0.5, 0.25, 0.125, 0.0625]) is None
    # stalls immediately: three sub-1% improvements from the start
    assert saturation_epoch([1.0, 0.995, 0.992, 0.990, 0.989]) == 1
    # a big drop resets the quiet streak
    assert saturation_epoch([1.0, 0.5, 0.499, 0.498, 0.497, 0.2]) == 2
    assert saturation_epoch([]) is None
    assert saturation_epoch([1.0, 0.99, 0.985]) is None  # streak too short


def test_metrics_csv_roundtrips(tmp_path):
    # written as the train command writes metrics.csv
    metrics = [
        {"epoch": 0, "train_loss": 0.125, "val_loss": 1.0 / 3.0, "lr": 0.01,
         "wall_time_s": 0.5},
        {"epoch": 1, "train_loss": 0.0625, "val_loss": 0.25, "lr": 0.005,
         "wall_time_s": 0.25},
    ]
    path = tmp_path / "metrics.csv"
    write_csv(path, list(metrics[0]), (row.values() for row in metrics))
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr,wall_time_s"
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    assert float(cells[2]) == 1.0 / 3.0  # repr round-trips exactly
    assert float(lines[2].split(",")[3]) == 0.005
