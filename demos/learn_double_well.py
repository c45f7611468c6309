"""End-to-end system identification on the double well, desk sized.

Generates a small noisy dataset, fits the Hamiltonian network with the
costate (adjoint) gradient engine, and scores the result on a phase-space
grid the training data never visited.  train() yields each epoch's record as
the epoch ends, so the table below grows while the fit runs.  Takes well
under a minute.

    python3 demos/learn_double_well.py
"""

import tempfile

import numpy as np

from symplearn.data import generate_dataset
from symplearn.evaluation import energy_drift, evaluate_ood
from symplearn.integrators import integrate
from symplearn.systems import get_system
from symplearn.training import TrainConfig, saturation_epoch, train


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
        print(f"  {'epoch':>5s} {'train loss':>12s} {'val loss':>12s} {'lr':>10s}")
        val_losses = []
        for m, net, theta in train(manifest, noisy, config):
            print(f"  {m['epoch']:5d} {m['train_loss']:12.4e} {m['val_loss']:12.4e} "
                  f"{m['lr']:10.3g}")
            val_losses.append(m["val_loss"])
    saturated = saturation_epoch(val_losses[1:])
    if saturated is not None:
        print(f"validation loss saturated at epoch {saturated}")

    system = get_system("double_well")
    grid, _ = evaluate_ood(lambda pts: net.eval_h(theta, pts), net.field(theta), system)
    print("on a 33x33 grid over the full sampling box "
          "(constant-aligned, since only gradients of H are observable):")
    print(f"  mean |H_model - H_true| = {grid['h_l1_mean']:.4f}")
    print(f"  max  |H_model - H_true| = {grid['h_l1_max']:.4f}")
    print(f"  mean field error        = {grid['dyn_l2_mean']:.4f}")

    # the learned field should also conserve its own energy when integrated
    y0 = np.array([0.0, 0.8])
    states, _ = integrate(net.field(theta), y0, 0.01, 2000)
    drift = energy_drift(lambda pts: net.eval_h(theta, pts), states)
    print(f"  learned-H drift along a learned-field orbit: {drift:.2e}")


if __name__ == "__main__":
    main()
