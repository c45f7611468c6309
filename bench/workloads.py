"""The benchmark's workloads: the user's CLI stages, run back to back.

Each workload is a closed loop with one caller: a stage starts when the one
before it has returned.  A stage is one `symplearn.cli.main([...])` call, the
name its wall time is filed under, and an output check that reads the
stage's artifacts without going through the package, so a broken writer and
a broken reader cannot agree with each other.

Why these two (the predictions each one carries are in BENCHMARK.json):

- dw-adjoint is the README's headline path, smoke data and 10 epochs with
  the costate engine.  Training time splits between the costate sweep and
  the forward fixed-point solve.
- hh-backprop is the same pipeline with recorded backprop on the dim-2
  Henon-Heiles system.  The costate sweep never runs, so a costate change
  should not move it, and a tape change should not move dw-adjoint.

A third workload, full-scale gen-data plus a 20,000-step batch-1 eval, was
left out: its eval stage, identical work in every run, took 7.5 to 14.8 s on
a shared 2-core host, a spread no 25% regression bound can hold.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np

# c6 acceptance thresholds for the smoke preset at seed 0
C6_H_L1_MAX = 0.05
C6_REDUCTION_MIN = 10.0
# c6 pins seed 0, whose reduction is 10.3x; other seeds range about 9.5x to
# 12.3x (seeds 0-9), so they are held to a floor that only a model which
# failed to learn (about 1x) comes near
OTHER_SEED_REDUCTION_MIN = 5.0


@dataclasses.dataclass(frozen=True)
class Stage:
    metric: str | None        # stage-time name its wall time is filed under, if any
    argv: tuple
    check: object             # callable() -> problem text or None


# ----------------------------------------------------------------- checks


def _finite_floats(values, what):
    bad = [v for v in values if not math.isfinite(v)]
    return f"{what} holds {len(bad)} non-finite values" if bad else None


def check_dataset(path):
    path = pathlib.Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        n_traj = manifest["n_train"] + manifest["n_val"]
        count = n_traj * (manifest["n_steps"] + 1) * 2 * manifest["dim"]
        for name in ("clean.f64", "noisy.f64"):
            data = np.fromfile(path / name, dtype="<f8")
            if data.size != count:
                return f"{name} holds {data.size} values, manifest implies {count}"
            if not np.all(np.isfinite(data)):
                return f"{name} holds non-finite values"
    except (OSError, ValueError, KeyError) as err:
        return f"dataset at {path}: {err}"
    return None


def check_training(path, epochs):
    path = pathlib.Path(path)
    try:
        header = json.loads((path / "model.json").read_text(encoding="utf-8"))
        theta = np.fromfile(path / header["data_file"], dtype="<f8")
        if theta.size != header["param_count"]:
            return f"model.bin holds {theta.size} values, header says {header['param_count']}"
        if not np.all(np.isfinite(theta)):
            return "model.bin holds non-finite parameters"
        rows = (path / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        if len(rows) != epochs + 1:
            return f"metrics.csv has {len(rows)} rows, expected {epochs + 1}"
        return _finite_floats([float(c) for r in rows for c in r.split(",")], "metrics.csv")
    except (OSError, ValueError, KeyError) as err:
        return f"training output at {path}: {err}"


EVAL_KEYS = ("h_l1_mean", "h_l1_max", "dyn_l2_mean", "offset",
             "drift_model_h", "drift_true_h")


def check_eval(path):
    path = pathlib.Path(path)
    try:
        report = json.loads((path / "eval.json").read_text(encoding="utf-8"))
        problem = _finite_floats([float(report[k]) for k in EVAL_KEYS], "eval.json")
        if problem:
            return problem
        rows = (path / "grid.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        if len(rows) != report["n_points"]:
            return f"grid.csv has {len(rows)} rows, eval.json says {report['n_points']}"
        return _finite_floats([float(c) for r in rows for c in r.split(",")], "grid.csv")
    except (OSError, ValueError, KeyError) as err:
        return f"evaluation output at {path}: {err}"


def read_quality(eval_dir, fit_dir):
    """h_l1_mean and drift_model_h from eval.json, and the train-loss
    reduction (first over last epoch) from metrics.csv."""
    report = json.loads((pathlib.Path(eval_dir) / "eval.json").read_text(encoding="utf-8"))
    rows = (pathlib.Path(fit_dir) / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
    losses = [float(r.split(",")[1]) for r in rows[1:]]
    return {
        "h_l1_mean": float(report["h_l1_mean"]),
        "loss_reduction": losses[0] / losses[-1],
        "drift_model_h": float(report["drift_model_h"]),
    }


def check_c6(eval_dir, fit_dir, seed):
    """The c6 learning thresholds, on top of the artifact checks."""
    problem = check_eval(eval_dir) or check_training(fit_dir, 10)
    if problem:
        return problem
    quality = read_quality(eval_dir, fit_dir)
    floor = C6_REDUCTION_MIN if seed == 0 else OTHER_SEED_REDUCTION_MIN
    if quality["h_l1_mean"] > C6_H_L1_MAX:
        return f"h_l1_mean {quality['h_l1_mean']:.4g} > {C6_H_L1_MAX}"
    if quality["loss_reduction"] < floor:
        return f"loss reduction {quality['loss_reduction']:.3g}x < {floor}x"
    return None


# -------------------------------------------------------------- pipelines


def _gen(metric, system, out, seed, *extra):
    return Stage(metric, ("gen-data", "--system", system, *extra, "--seed", str(seed),
                          "--out-dir", str(out)), lambda: check_dataset(out))


def _train(metric, data, out, seed, grad_mode, epochs, *extra):
    return Stage(metric, ("train", "--data", str(data), "--grad-mode", grad_mode,
                          "--epochs", str(epochs), *extra, "--seed", str(seed),
                          "--out-dir", str(out)), lambda: check_training(out, epochs))


def _eval(metric, checkpoint, system, out, seed, *extra):
    return Stage(metric, ("eval", "--checkpoint", str(checkpoint), "--system", system,
                          *extra, "--seed", str(seed), "--out-dir", str(out)),
                 lambda: check_eval(out))


@dataclasses.dataclass(frozen=True)
class Workload:
    """The smoke pipeline for one system and gradient engine."""

    name: str
    system: str
    grad_mode: str
    learning_check: bool = False   # hold the eval stage to the c6 thresholds

    def setup(self, root):
        """A tiny pass over the same stages: first-call costs land in set-up."""
        return [
            _gen(None, self.system, root / "ds", 0, "--n-train", "16", "--n-val", "4"),
            _train(None, root / "ds", root / "fit", 0, self.grad_mode, 1, "--batch-size",
                   "16", "--windows-per-traj", "2", "--val-batches", "1"),
            _eval(None, root / "fit" / "model.json", self.system, root / "eval", 0,
                  "--grid-points", "5", "--drift-steps", "10"),
        ]

    def iteration(self, root, seed):
        """gen-data --smoke, train --epochs 10 at the defaults, eval at the
        defaults."""
        stages = [
            _gen("gen_data_s", self.system, root / "ds", seed, "--smoke"),
            _train("train_s", root / "ds", root / "fit", seed, self.grad_mode, 10),
            _eval("eval_s", root / "fit" / "model.json", self.system, root / "eval", seed),
        ]
        if self.learning_check:
            stages[2] = dataclasses.replace(
                stages[2], check=lambda: check_c6(root / "eval", root / "fit", seed))
        return stages


WORKLOADS = {w.name: w for w in (
    Workload("dw-adjoint", "double_well", "adjoint", learning_check=True),
    Workload("hh-backprop", "henon_heiles", "backprop"),
)}
