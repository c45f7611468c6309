"""What the benchmark takes from the package, checked at tier-1 speed.

bench/run.py and bench/tracing.py reach into the package by name and unpack
what it returns.  The tracer skips a name it cannot find without a word, and
the benchmark's own test (bench/test_bench.py) takes minutes, so a rename or
a changed return shape would otherwise first show as a metric reading zero.
"""

import importlib
import importlib.util
import inspect
import os
import pathlib
import types
from collections import Counter, defaultdict

import numpy as np
import pytest

from symplearn.adjoint import record_rollout, solve_adjoint_accumulate
from symplearn.data import generate_dataset, load_dataset
from symplearn.integrators import TABLEAUX, implicit_midpoint_step, prk_step
from symplearn.memory import METER
from symplearn.model import HamiltonianNet, save_checkpoint
from symplearn.profiling import profile_gradient_modes, profile_windows
from symplearn.systems import get_system
from symplearn.training import TrainConfig, _rollout, loss_and_grad, train

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_traces_by_is_defined_where_the_tracer_looks():
    # the tracer wraps a layer's function or method only where that layer
    # defines it; run.py reads the _reverse_input count as the number of
    # field evaluations, and costate_to_direction is counted too
    tracing = _bench_module("tracing")
    names = [*tracing.OBSERVERS, *tracing.EXTRA_SPANNED,
             "model.HamiltonianNet._reverse_input", "model.costate_to_direction"]
    for name in names:
        layer, *path = name.split(".")
        assert layer in tracing.LAYERS, name
        obj = importlib.import_module(f"symplearn.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
            assert obj is not None, f"{name} does not exist"
        assert inspect.isfunction(obj) and obj.__module__ == f"symplearn.{layer}", name


def test_the_results_the_bench_unpacks_keep_their_shape(tmp_path):
    system = get_system("coupled_ho")
    net = HamiltonianNet(system.dim, hidden=(4,))
    theta = net.init_params(0)
    h = 0.01
    windows = profile_windows(system, 4, 2, h, 0)
    config = TrainConfig(grad_mode="adjoint", window_steps=2)

    with METER.measure() as block:
        result = loss_and_grad(net, theta, windows, h, config)
        assert block.peak_bytes > 0
    assert len(result) == 3
    loss, grad, _ = result
    assert np.isfinite(loss) and grad.shape == theta.shape

    _, partials, states, _ = _rollout(net.field(theta), windows, h, config)
    sweep = solve_adjoint_accumulate(net, theta, states, partials, h)
    assert len(sweep) == 2 and 0.0 <= sweep[1].converged_fraction <= 1.0

    rows = profile_gradient_modes(window_steps=(1, 2), repeats=1)
    assert {(r.grad_mode, r.window_steps) for r in rows} == {
        (mode, steps) for mode in ("adjoint", "backprop") for steps in (1, 2)}
    assert all(r.peak_bytes > 0 for r in rows)

    # the tracer's observers read the solver reports and the written arrays
    observe, stats = _bench_module("tracing").OBSERVERS, defaultdict(float)
    observe["adjoint.record_rollout"](
        stats, record_rollout(net, theta, windows[0], h, 2))
    assert stats["adjoint.record_rollout.steps"] == 2
    y0 = windows[0, 0]
    for name, result in (
            ("integrators.implicit_midpoint_step",
             implicit_midpoint_step(system.dynamics, y0, h)),
            ("integrators.prk_step", prk_step(system.dynamics, y0, h, TABLEAUX["gauss2"]))):
        y, report = result
        assert y.shape == y0.shape and report.iterations >= 1 and report.converged
        observe[name](stats, result)
    assert stats["integrators.midpoint_step.steps"] == stats["integrators.prk_step.steps"] == 1
    assert stats["integrators.midpoint_step.nonconverged"] == 0

    observe["data.generate_dataset"](
        stats, generate_dataset("coupled_ho", tmp_path, 0, 2, 1, n_steps=3))
    assert stats["data.bytes_written"] == sum(f.stat().st_size for f in tmp_path.iterdir())


def _count_calls(monkeypatch, *names):
    """Count the calls of each layer.function by wrapping it wherever the
    package holds it by name, as the tracer does; returns the counter."""
    counts, layers = Counter(), _bench_module("tracing").LAYERS
    for name in names:
        layer, attr = name.split(".")
        original = getattr(importlib.import_module(f"symplearn.{layer}"), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for held_in in layers:
            module = importlib.import_module(f"symplearn.{held_in}")
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("grad_mode, expected", [
    ("backprop", {"adjoint.record_rollout": 1, "adjoint.backward_through_record": 1}),
    ("adjoint", {"adjoint.solve_adjoint_accumulate": 1}),
])
def test_a_training_step_calls_what_the_bench_times(monkeypatch, grad_mode, expected):
    # bench/run.py files these spans as adjoint.record_rollout.total_s,
    # adjoint.backward.total_s and adjoint.costate_sweep.*; a training step
    # that stopped calling one would read 0 there
    counts = _count_calls(monkeypatch, "adjoint.record_rollout",
                          "adjoint.backward_through_record",
                          "adjoint.solve_adjoint_accumulate")
    system = get_system("coupled_ho")
    net = HamiltonianNet(system.dim, hidden=(4,))
    windows = profile_windows(system, 4, 2, 0.01, 0)
    loss_and_grad(net, net.init_params(0), windows, 0.01,
                  TrainConfig(grad_mode=grad_mode, window_steps=2))
    assert counts == expected


def test_train_calls_the_forward_loss_the_bench_times_as_validation(tmp_path, monkeypatch):
    # training.validation_s is the span of training._forward_loss: one call
    # per batch of epoch 0's baseline, and two per batch of every epoch's
    # validation, the model's and its noise floor's
    counts = _count_calls(monkeypatch, "training._forward_loss")
    generate_dataset("double_well", tmp_path, seed=7, n_train=8, n_val=2, n_steps=60)
    config = TrainConfig(window_steps=2, stride=10, batch_size=8, epochs=2,
                         windows_per_traj=8, hidden=(8,), val_batches=3)
    manifest, _, noisy = load_dataset(tmp_path)
    for _ in train(manifest, noisy, config):
        pass
    assert counts == {"training._forward_loss": config.val_batches * (2 * config.epochs + 3)}


@pytest.mark.parametrize("grad_mode", ["adjoint", "backprop"])
def test_the_bench_batch_feeds_a_training_step(tmp_path, monkeypatch, grad_mode):
    # bench/run.py's training_batch hands a sample_windows batch to
    # loss_and_grad as it is; a layout the two disagree on would first show
    # as a failed replay.  run.py pins the BLAS thread variables when loaded
    monkeypatch.setattr(os, "environ", dict(os.environ))
    run = _bench_module("run")
    generate_dataset("double_well", tmp_path / "ds", seed=0, n_train=4, n_val=1)
    net = HamiltonianNet(1, hidden=(8,))
    theta = net.init_params(0)
    save_checkpoint(tmp_path / "fit" / "model.json", net, theta, seed=0)
    workload = types.SimpleNamespace(grad_mode=grad_mode)
    net, theta, windows, h, config = run.training_batch(workload, tmp_path / "fit",
                                                        tmp_path / "ds", 0)
    assert windows.shape == (config.window_steps + 1, 4 * config.windows_per_traj, 2)
    loss, grad, _ = loss_and_grad(net, theta, windows, h, config)
    assert np.isfinite(loss) and grad.shape == theta.shape and np.all(np.isfinite(grad))
