"""End-to-end system identification on the double well, desk sized.

Generates a small noisy dataset, fits the Hamiltonian network with the
costate (adjoint) gradient engine, and scores the result on a phase-space
grid the training data never visited.  Takes well under a minute.

    python3 demos/learn_double_well.py
"""

import tempfile

import numpy as np

from symplearn.data import generate_dataset
from symplearn.evaluation import evaluate_ood, report_table
from symplearn.systems import get_system
from symplearn.training import TrainConfig, train


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print("generating 256 + 64 noisy double-well trajectories ...")
        manifest, _, noisy = generate_dataset("double_well", tmp, seed=0,
                                              n_train=256, n_val=64)

        config = TrainConfig(epochs=6, batch_size=256, windows_per_traj=8,
                             hidden=(16, 32, 16), seed=0)
        print(f"training {config.epochs} epochs "
              f"({config.grad_mode} gradients, window of "
              f"{config.window_steps} solver steps) ...")
        result = train(manifest, noisy, config)

    rows = [{"name": f"epoch {m['epoch']}", "train_loss": m["train_loss"],
             "val_loss": m["val_loss"], "lr": m["lr"]}
            for m in result.metrics]
    md = report_table(rows)
    print(md)
    if result.saturation_epoch is not None:
        print(f"validation loss saturated at epoch {result.saturation_epoch}")

    net, theta = result.net, result.theta
    system = get_system("double_well")
    grid, _ = evaluate_ood(lambda pts: net.eval_h(theta, pts),
                           lambda pts: net.dynamics(theta, pts), system)
    print("on a 33x33 grid over the full sampling box "
          "(constant-aligned, since only gradients of H are observable):")
    print(f"  mean |H_model - H_true| = {grid['h_l1_mean']:.4f}")
    print(f"  max  |H_model - H_true| = {grid['h_l1_max']:.4f}")
    print(f"  mean field error        = {grid['dyn_l2_mean']:.4f}")

    # the learned field should also conserve its own energy when integrated
    from symplearn.evaluation import energy_drift
    y0 = np.array([0.0, 0.8])
    drift = energy_drift(lambda y: net.dynamics(theta, y),
                         lambda pts: net.eval_h(theta, pts), y0, 0.01, 2000)
    print(f"  learned-H drift along a learned-field orbit: {drift:.2e}")


if __name__ == "__main__":
    main()
