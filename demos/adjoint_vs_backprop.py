"""The two gradient engines: same numbers, very different memory.

The costate (adjoint) engine re-walks the stored trajectory backward and
accumulates the parameter gradient on the fly; the recorded-backprop engine
keeps every solver iterate and differentiates through the tape.  Both sit on
the same forward rollout, so their gradients agree to solver tolerance --
but one runs in constant memory and the other grows with the window length.

    python3 demos/adjoint_vs_backprop.py
"""

import numpy as np

from symplearn.evaluation import report_table
from symplearn.model import HamiltonianNet
from symplearn.profiling import profile_gradient_modes, profile_windows
from symplearn.systems import get_system
from symplearn.training import TrainConfig, loss_and_grad


def gradient_agreement():
    print("== gradient agreement on one batch ==")
    system = get_system("coupled_ho")
    net = HamiltonianNet(system.dim)
    theta = net.init_params(0)
    windows = profile_windows(system, batch_size=8, window_steps=6,
                              h=0.01, seed=0)

    grads = {}
    for mode in ("adjoint", "backprop"):
        config = TrainConfig(grad_mode=mode, window_steps=6)
        loss, grads[mode], _ = loss_and_grad(net, theta, windows, 0.01, config)
    gap = np.max(np.abs(grads["adjoint"] - grads["backprop"]))
    scale = np.max(np.abs(grads["backprop"]))
    print(f"  {net.n_params} parameters, max |adjoint - backprop| = {gap:.2e}"
          f" (relative {gap / scale:.2e})\n")


def memory_growth():
    print("== peak engine memory vs window length (batch 512) ==")
    rows = profile_gradient_modes(batch_size=512, window_steps=(4, 8, 16, 32),
                                  repeats=1)
    table = [{"name": f"{r.grad_mode} / {r.window_steps} steps",
              "peak_bytes": r.peak_bytes, "wall_s": round(r.wall_s, 4)}
             for r in rows]
    md = report_table(table)
    print(md)
    adj = [r.peak_bytes for r in rows if r.grad_mode == "adjoint"]
    bp = [r.peak_bytes for r in rows if r.grad_mode == "backprop"]
    print(f"costate engine: {adj[0]} bytes at every length (flat)")
    print(f"recorded tape:  {bp[0]} -> {bp[-1]} bytes "
          f"({bp[-1] / bp[0]:.1f}x growth over 8x more steps)")


if __name__ == "__main__":
    gradient_agreement()
    memory_growth()
