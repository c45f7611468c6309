"""Command-line front end for dataset generation, training, and diagnostics.

This module must not import numpy (or any submodule that does) at the top
level: --threads works by setting the BLAS thread-count environment variables,
which only take effect if they are set before numpy first loads.  Heavy
imports therefore live inside the command handlers.

Option precedence is CLI flag > --config JSON file > built-in default; the
training and solver options have no defaults here, so TrainConfig and
FpiConfig fill in whatever was not given.  The config file is a flat JSON
object whose keys are the option names with underscores (for example
{"grad_mode": "backprop", "epochs": 5}).  The thread cap is CLI-only, since a
config file is read too late to matter.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(solver blow-up or a training abort).
"""

import argparse
import json
import os
import pathlib
import sys

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_COMMANDS = ("gen-data", "train", "eval", "integrate", "profile",
             "check-tableau", "grad-check", "export-csv")


class UsageError(Exception):
    """Bad flags, bad config, missing files: exit code 1."""


def _apply_thread_env(argv):
    """Honor --threads before numpy can load.  Profiling defaults to one
    thread so memory and runtime attribution stays unambiguous."""
    threads = None
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif tok.startswith("--threads="):
            threads = tok.split("=", 1)[1]
    if threads is None and argv and argv[0] == "profile":
        threads = "1"
    if threads is None:
        return
    try:
        n = int(threads)
        if n < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"--threads expects a positive integer, got {threads!r}") from None
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


# ----------------------------------------------------------------------
# parser


def _common_parent():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON file of option defaults (CLI flags win)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="master seed for this command")
    p.add_argument("--out-dir", default=argparse.SUPPRESS,
                   help="directory all outputs are written under")
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                   help="cap BLAS/OpenMP threads (CLI-only; profile defaults to 1)")
    return p


# Options that fill TrainConfig and FpiConfig fields, with the parser for
# values that arrive from a config file.  An option left unset is not passed,
# so the dataclass default applies.
_TRAIN_FIELDS = {
    "grad_mode": str, "window_steps": int, "stride": int, "batch_size": int,
    "epochs": int, "windows_per_traj": int, "lr": float, "shooting": str,
    "segment_steps": int, "val_batches": int, "seed": int,
}
_FPI_FIELDS = {"fpi_tol": ("tol", float), "fpi_max_iters": ("max_iters", int),
               "guess_source": ("guess_source", str)}
# Options of other commands that go to a library call only when given:
# option key -> (parameter name, parser).
_GEN_FIELDS = {"n_train": ("n_train", int), "n_val": ("n_val", int),
               "n_steps": ("n_steps", int), "dt": ("dt", float),
               "noise_std": ("noise_std", float)}
_PROFILE_FIELDS = {"system": ("system_name", str), "batch_size": ("batch_size", int),
                   "window_steps": ("window_steps", lambda v: _ints(v, "--window-steps")),
                   "h": ("h", float), "repeats": ("repeats", int)}

DEFAULTS = {
    "gen-data": {
        "system": "double_well", "system_param": {}, "seed": 0,
        "out_dir": "runs/dataset", **dict.fromkeys(_GEN_FIELDS),
        "smoke": False, "full": False,
    },
    "train": {
        "data": None, "hidden": None, "out_dir": "runs/train",
        **dict.fromkeys(_TRAIN_FIELDS), **dict.fromkeys(_FPI_FIELDS),
    },
    "eval": {
        "checkpoint": None, "oracle": False, "system": "double_well",
        "system_param": {}, "grid_points": None, "slice": [],
        "drift_steps": 1000, "drift_h": 0.01, "fpi_tol": None,
        "seed": 0, "out_dir": "runs/eval",
    },
    "integrate": {
        "system": None, "system_param": {}, "checkpoint": None,
        "method": "implicit_midpoint", "h": 0.01, "n_steps": 1000,
        "y0": None, "seed": 0, "out_dir": "runs/integrate",
        **dict.fromkeys(_FPI_FIELDS),
    },
    "profile": {
        **dict.fromkeys(_PROFILE_FIELDS), "seed": 0, "out_dir": "runs/profile",
    },
    "check-tableau": {
        "method": None, "file": None, "tol": 1e-12, "seed": 0,
        "out_dir": "runs/check-tableau",
    },
    "grad-check": {
        "system": "coupled_ho", "system_param": {}, "hidden": "8",
        "window_steps": 4, "batch_size": 4, "h": 0.01, "fd_step": 1e-5,
        "fpi_tol": 1e-12, "seed": 0, "out_dir": "runs/grad-check",
    },
    "export-csv": {
        "data": None, "which": "noisy", "max_traj": None, "out": None,
        "seed": 0, "out_dir": "runs/export",
    },
}


def _build_parser():
    common = _common_parent()
    S = argparse.SUPPRESS
    parser = argparse.ArgumentParser(
        prog="symplearn",
        description="Learn Hamiltonians from noisy trajectories with a "
                    "symplectic solver in the loop.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-data", parents=[common],
                       help="integrate a benchmark system and store noisy trajectories")
    p.add_argument("--system", default=S)
    p.add_argument("--system-param", action="append", default=S, metavar="K=V")
    p.add_argument("--n-train", type=int, default=S)
    p.add_argument("--n-val", type=int, default=S)
    p.add_argument("--n-steps", type=int, default=S)
    p.add_argument("--dt", type=float, default=S)
    p.add_argument("--noise-std", type=float, default=S)
    p.add_argument("--smoke", action="store_true", default=S,
                   help="desk-scale sizes (1024 train / 256 val)")
    p.add_argument("--full", action="store_true", default=S,
                   help="full-scale sizes (16384 train / 8192 val; the default)")

    p = sub.add_parser("train", parents=[common],
                       help="fit a Hamiltonian network to a stored dataset")
    p.add_argument("--data", default=S, help="dataset directory from gen-data")
    p.add_argument("--grad-mode", choices=["adjoint", "backprop"], default=S)
    p.add_argument("--window-steps", type=int, default=S)
    p.add_argument("--stride", type=int, default=S)
    p.add_argument("--batch-size", type=int, default=S)
    p.add_argument("--epochs", type=int, default=S)
    p.add_argument("--windows-per-traj", type=int, default=S)
    p.add_argument("--lr", type=float, default=S)
    p.add_argument("--shooting", choices=["single", "multiple"], default=S)
    p.add_argument("--segment-steps", type=int, default=S)
    p.add_argument("--fpi-tol", type=float, default=S)
    p.add_argument("--fpi-max-iters", type=int, default=S)
    p.add_argument("--guess-source",
                   choices=["predictor", "observation", "previous_state"], default=S)
    p.add_argument("--hidden", default=S, metavar="H1,H2,...")
    p.add_argument("--val-batches", type=int, default=S)

    p = sub.add_parser("eval", parents=[common],
                       help="score a checkpoint against a known system on a phase-space grid")
    p.add_argument("--checkpoint", default=S, help="model .json header path")
    p.add_argument("--oracle", action="store_true", default=S,
                   help="score the true system against itself (pipeline check)")
    p.add_argument("--system", default=S)
    p.add_argument("--system-param", action="append", default=S, metavar="K=V")
    p.add_argument("--grid-points", type=int, default=S)
    p.add_argument("--slice", action="append", default=S, metavar="AXIS=VALUE",
                   help="fix a non-grid coordinate (default 0.0)")
    p.add_argument("--drift-steps", type=int, default=S)
    p.add_argument("--drift-h", type=float, default=S)
    p.add_argument("--fpi-tol", type=float, default=S)

    p = sub.add_parser("integrate", parents=[common],
                       help="roll a system or checkpoint forward and dump the trajectory CSV")
    p.add_argument("--system", default=S)
    p.add_argument("--system-param", action="append", default=S, metavar="K=V")
    p.add_argument("--checkpoint", default=S)
    p.add_argument("--method", default=S)
    p.add_argument("--h", type=float, default=S)
    p.add_argument("--n-steps", type=int, default=S)
    p.add_argument("--y0", default=S, metavar="X1,X2,...")
    p.add_argument("--fpi-tol", type=float, default=S)
    p.add_argument("--fpi-max-iters", type=int, default=S)
    p.add_argument("--guess-source",
                   choices=["predictor", "observation", "previous_state"], default=S)

    p = sub.add_parser("profile", parents=[common],
                       help="memory/runtime comparison of the two gradient engines")
    p.add_argument("--system", default=S)
    p.add_argument("--batch-size", type=int, default=S)
    p.add_argument("--window-steps", default=S, metavar="N1,N2,...")
    p.add_argument("--h", type=float, default=S)
    p.add_argument("--repeats", type=int, default=S)

    p = sub.add_parser("check-tableau", parents=[common],
                       help="verify the symplecticity conditions of a coefficient pair")
    p.add_argument("--method", default=S, help="registered tableau name")
    p.add_argument("--file", default=S,
                   help="JSON file with a_q, b_q, a_p, b_p arrays")
    p.add_argument("--tol", type=float, default=S)

    p = sub.add_parser("grad-check", parents=[common],
                       help="compare costate, reverse-tape, and finite-difference gradients")
    p.add_argument("--system", default=S)
    p.add_argument("--system-param", action="append", default=S, metavar="K=V")
    p.add_argument("--hidden", default=S, metavar="H1,H2,...")
    p.add_argument("--window-steps", type=int, default=S)
    p.add_argument("--batch-size", type=int, default=S)
    p.add_argument("--h", type=float, default=S)
    p.add_argument("--fd-step", type=float, default=S)
    p.add_argument("--fpi-tol", type=float, default=S)

    p = sub.add_parser("export-csv", parents=[common],
                       help="dump stored trajectories as CSV")
    p.add_argument("--data", default=S)
    p.add_argument("--which", choices=["noisy", "clean"], default=S)
    p.add_argument("--max-traj", type=int, default=S)
    p.add_argument("--out", default=S, help="output CSV path (default under --out-dir)")

    return parser


def _merge_options(namespace):
    ns = dict(vars(namespace))
    cmd = ns.pop("cmd")
    config_path = ns.pop("config", None)
    merged = dict(DEFAULTS[cmd])
    if config_path is not None:
        try:
            raw = pathlib.Path(config_path).read_text(encoding="utf-8")
            file_cfg = json.loads(raw)
        except OSError as err:
            raise UsageError(f"cannot read config file: {err}") from None
        except json.JSONDecodeError as err:
            raise UsageError(f"config file {config_path} is not valid JSON: {err}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        if "threads" in file_cfg:
            raise UsageError("threads must be passed on the command line "
                             "(a config file loads after numpy)")
        for key, value in file_cfg.items():
            if key not in merged and key not in ("seed", "out_dir"):
                raise UsageError(f"config key {key!r} is not an option of {cmd}")
            merged[key] = value
    ns.pop("threads", None)
    merged.update(ns)
    merged["cmd"] = cmd
    return merged


# ----------------------------------------------------------------------
# small option normalizers (config files hand in typed JSON, the CLI strings)


def _ints(value, flag):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects integers, got {value!r}") from None


def _floats(value, flag):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects numbers, got {value!r}") from None


def _kv_floats(value, flag):
    if isinstance(value, dict):
        return {str(k): float(v) for k, v in value.items()}
    out = {}
    for item in value or ():
        if "=" not in item:
            raise UsageError(f"{flag} expects K=V, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise UsageError(f"{flag}: {v!r} is not a number") from None
    return out


def _axis_slices(value):
    pairs = _kv_floats(value, "--slice")
    try:
        return {int(k): v for k, v in pairs.items()}
    except ValueError:
        raise UsageError("--slice axis must be an integer coordinate index") from None


def _out_dir(opts):
    path = pathlib.Path(opts["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _given(opts, fields):
    """Keyword arguments for the options in fields that were given; the
    callee's own defaults fill in the rest."""
    return {param: parse(opts[key]) for key, (param, parse) in fields.items()
            if opts.get(key) is not None}


def _fpi(opts):
    """FpiConfig from the solver options given; FpiConfig fills in the rest."""
    from .integrators import FpiConfig
    return FpiConfig(**_given(opts, _FPI_FIELDS))


# ----------------------------------------------------------------------
# handlers


def cmd_gen_data(opts):
    from .data import FULL_SCALE, SMOKE_SCALE, generate_dataset
    if opts["smoke"] and opts["full"]:
        raise UsageError("--smoke and --full are mutually exclusive")
    sizes = {**(SMOKE_SCALE if opts["smoke"] else FULL_SCALE), **_given(opts, _GEN_FIELDS)}
    out = _out_dir(opts)
    manifest, _, _ = generate_dataset(
        opts["system"], out, seed=int(opts["seed"]),
        system_params=_kv_floats(opts["system_param"], "--system-param"), **sizes,
    )
    print(f"wrote {manifest.system} dataset to {out}: "
          f"n_train={manifest.n_train} n_val={manifest.n_val} "
          f"n_steps={manifest.n_steps} dt={manifest.dt} noise_std={manifest.noise_std}")
    return 0


def _train_config(opts):
    """TrainConfig from the training options given; TrainConfig fills in the rest."""
    from .training import TrainConfig
    try:
        given = _given(opts, {key: (key, parse) for key, parse in _TRAIN_FIELDS.items()})
        if opts["hidden"] is not None:
            given["hidden"] = _ints(opts["hidden"], "--hidden")
        return TrainConfig(fpi=_fpi(opts), **given)
    except ValueError as err:
        raise UsageError(str(err)) from None


def cmd_train(opts):
    from .data import load_dataset
    from .model import save_checkpoint
    from .training import metrics_to_csv, train
    if not opts["data"]:
        raise UsageError("--data (dataset directory) is required")
    try:
        manifest, _, noisy = load_dataset(opts["data"])
    except OSError as err:
        raise UsageError(f"cannot read dataset at {opts['data']}: {err}") from None
    config = _train_config(opts)
    result = train(manifest, noisy, config)
    out = _out_dir(opts)
    header_path, _ = save_checkpoint(out / "model.json", result.net, result.theta,
                                     seed=config.seed)
    (out / "metrics.csv").write_text(metrics_to_csv(result.metrics), encoding="utf-8")
    first, last = result.metrics[0], result.metrics[-1]
    print(f"trained {config.epochs} epochs on {manifest.system} "
          f"({config.grad_mode} gradients)")
    print(f"train loss {first['train_loss']:.6g} -> {last['train_loss']:.6g}, "
          f"val loss {first['val_loss']:.6g} -> {last['val_loss']:.6g}, "
          f"saturation epoch {result.saturation_epoch}")
    print(f"checkpoint {header_path}, metrics {out / 'metrics.csv'}")
    return 0


def cmd_eval(opts):
    import numpy as np

    from .evaluation import energy_drift, evaluate_ood
    from .systems import get_system
    system = get_system(opts["system"], **_kv_floats(opts["system_param"],
                                                     "--system-param"))
    slices = _axis_slices(opts["slice"])
    if opts["oracle"]:
        h_fn, dyn_fn = system.hamiltonian, system.dynamics
        source = f"oracle:{system.name}"
    else:
        if not opts["checkpoint"]:
            raise UsageError("--checkpoint is required unless --oracle is given")
        from .model import load_checkpoint
        net, theta, _ = load_checkpoint(opts["checkpoint"])
        if net.dim != system.dim:
            raise UsageError(
                f"checkpoint has dim {net.dim}, system {system.name} has dim {system.dim}"
            )

        def h_fn(pts):
            return net.eval_h(theta, pts)

        def dyn_fn(pts):
            return net.dynamics(theta, pts)

        source = str(opts["checkpoint"])

    report, points = evaluate_ood(h_fn, dyn_fn, system, slices=slices, **_given(
        opts, {"grid_points": ("points_per_axis", int)}))

    rng = np.random.default_rng((int(opts["seed"]), 5))
    lo, hi = system.bounds[:, 0], system.bounds[:, 1]
    y0 = lo + (hi - lo) * rng.random(2 * system.dim)
    cfg = _fpi(opts)
    report["drift_model_h"] = energy_drift(
        dyn_fn, h_fn, y0, float(opts["drift_h"]), int(opts["drift_steps"]), cfg=cfg)
    report["drift_true_h"] = energy_drift(
        dyn_fn, system.hamiltonian, y0, float(opts["drift_h"]),
        int(opts["drift_steps"]), cfg=cfg)
    report["system"] = system.name
    report["source"] = source

    out = _out_dir(opts)
    with open(out / "eval.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    pts = points["pts"]
    columns = ("h_true", "h_pred", "h_err_aligned", "dyn_l2_err")
    lines = [",".join([f"x{i}" for i in range(pts.shape[1])] + list(columns))]
    for i in range(pts.shape[0]):
        cells = [repr(float(v)) for v in pts[i]]
        cells += [repr(float(points[name][i])) for name in columns]
        lines.append(",".join(cells))
    (out / "grid.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"h_l1_mean={report['h_l1_mean']:.6g} h_l1_max={report['h_l1_max']:.6g} "
          f"dyn_l2_mean={report['dyn_l2_mean']:.6g} "
          f"drift_true_h={report['drift_true_h']:.6g}")
    print(f"report {out / 'eval.json'}, grid {out / 'grid.csv'}")
    return 0


def cmd_integrate(opts):
    import numpy as np

    from .integrators import integrate
    if bool(opts["system"]) == bool(opts["checkpoint"]):
        raise UsageError("pass exactly one of --system or --checkpoint")
    h_fn = None
    if opts["system"]:
        from .systems import get_system
        system = get_system(opts["system"],
                            **_kv_floats(opts["system_param"], "--system-param"))
        field, h_fn, dim = system.dynamics, system.hamiltonian, system.dim
        if opts["y0"] is not None:
            y0 = np.array(_floats(opts["y0"], "--y0"))
        else:
            rng = np.random.default_rng((int(opts["seed"]), 5))
            lo, hi = system.bounds[:, 0], system.bounds[:, 1]
            y0 = lo + (hi - lo) * rng.random(2 * dim)
        label = system.name
    else:
        from .model import load_checkpoint
        net, theta, _ = load_checkpoint(opts["checkpoint"])
        if opts["y0"] is None:
            raise UsageError("--y0 is required when integrating a checkpoint")

        def field(y):
            return net.dynamics(theta, y)

        def h_fn(pts):
            return net.eval_h(theta, pts)

        dim = net.dim
        y0 = np.array(_floats(opts["y0"], "--y0"))
        label = f"checkpoint:{opts['checkpoint']}"
    if y0.shape != (2 * dim,):
        raise UsageError(f"--y0 needs {2 * dim} coordinates, got {y0.size}")

    traj, reports = integrate(field, y0, float(opts["h"]), int(opts["n_steps"]),
                              method=opts["method"], cfg=_fpi(opts), dim=dim)
    out = _out_dir(opts)
    coords = [f"x{i}" for i in range(2 * dim)]
    lines = [",".join(["step", "t"] + coords)]
    for k in range(traj.states.shape[0]):
        cells = [str(k), repr(float(traj.times[k]))]
        cells += [repr(float(v)) for v in traj.states[k]]
        lines.append(",".join(cells))
    path = out / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    h_vals = np.asarray(h_fn(traj.states), dtype=np.float64)
    drift = float(np.max(np.abs(h_vals - h_vals[0])))
    mean_iters = float(np.mean([r.iterations for r in reports]))
    print(f"integrated {label} for {opts['n_steps']} steps at h={opts['h']} "
          f"({opts['method']}); energy drift {drift:.3e}, "
          f"mean solver iterations {mean_iters:.2f}")
    print(f"trajectory {path}")
    return 0


def cmd_profile(opts):
    from .profiling import profile_gradient_modes, profile_to_csv
    rows = profile_gradient_modes(seed=int(opts["seed"]), **_given(opts, _PROFILE_FIELDS))
    out = _out_dir(opts)
    path = out / "profile.csv"
    path.write_text(profile_to_csv(rows), encoding="utf-8")
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r.grad_mode, []).append(r)
        print(f"{r.grad_mode:9s} steps={r.window_steps:3d} "
              f"peak_bytes={r.peak_bytes:>12d} wall_s={r.wall_s:.4f}")
    for mode, mode_rows in by_mode.items():
        first, last = mode_rows[0], mode_rows[-1]
        ratio = last.peak_bytes / first.peak_bytes
        print(f"{mode}: peak memory ratio ({last.window_steps} vs "
              f"{first.window_steps} steps) = {ratio:.3f}")
    print(f"profile {path}")
    return 0


def cmd_check_tableau(opts):
    from .integrators import PrkTableau, TABLEAUX, check_symplectic_tableau
    if bool(opts["method"]) == bool(opts["file"]):
        raise UsageError("pass exactly one of --method or --file")
    if opts["method"]:
        name = opts["method"]
        if name not in TABLEAUX:
            raise UsageError(f"unknown tableau {name!r}; known: {sorted(TABLEAUX)}")
        tableau = TABLEAUX[name]
    else:
        import numpy as np
        try:
            raw = json.loads(pathlib.Path(opts["file"]).read_text(encoding="utf-8"))
        except OSError as err:
            raise UsageError(f"cannot read tableau file: {err}") from None
        except json.JSONDecodeError as err:
            raise UsageError(f"tableau file is not valid JSON: {err}") from None
        try:
            tableau = PrkTableau(
                name=raw.get("name", pathlib.Path(opts["file"]).stem),
                a_q=np.asarray(raw["a_q"], dtype=np.float64),
                b_q=np.asarray(raw["b_q"], dtype=np.float64),
                a_p=np.asarray(raw["a_p"], dtype=np.float64),
                b_p=np.asarray(raw["b_p"], dtype=np.float64),
            )
        except KeyError as err:
            raise UsageError(f"tableau file is missing key {err}") from None
    report = check_symplectic_tableau(tableau, tol=float(opts["tol"]))
    verdict = "symplectic" if report.symplectic else "NOT symplectic"
    print(f"{tableau.name}: {verdict} (tol {opts['tol']})")
    print(f"  weight mismatch    max|b_q - b_p|               = {report.weight_mismatch:.3e}")
    print(f"  stage coupling     max|bA + (bA)' - bb'|        = {report.coupling_violation:.3e}")
    print(f"  node mismatch      max|c_q - c_p| (informational) = {report.node_mismatch:.3e}")
    print(f"  max violation = {report.max_violation!r}")
    return 0


def cmd_grad_check(opts):
    import numpy as np

    from .profiling import profile_windows
    from .systems import get_system
    from .model import HamiltonianNet
    from .training import TrainConfig, _forward_loss, loss_and_grad

    system = get_system(opts["system"],
                        **_kv_floats(opts["system_param"], "--system-param"))
    hidden = _ints(opts["hidden"], "--hidden")
    net = HamiltonianNet(system.dim, hidden=hidden)
    seed = int(opts["seed"])
    theta = net.init_params(seed)
    h = float(opts["h"])
    n_steps = int(opts["window_steps"])
    windows = profile_windows(system, int(opts["batch_size"]), n_steps, h, seed)

    def config(mode):
        return TrainConfig(grad_mode=mode, window_steps=n_steps, fpi=_fpi(opts),
                           seed=seed)

    loss0, g_adj, _ = loss_and_grad(net, theta, windows, h, config("adjoint"))
    _, g_bp, _ = loss_and_grad(net, theta, windows, h, config("backprop"))

    step = float(opts["fd_step"])
    cfg_fwd = config("adjoint")
    g_fd = np.empty(net.n_params)
    for i in range(net.n_params):
        bump = np.zeros(net.n_params)
        bump[i] = step
        up = _forward_loss(net, theta + bump, windows, h, cfg_fwd)
        dn = _forward_loss(net, theta - bump, windows, h, cfg_fwd)
        g_fd[i] = (up - dn) / (2.0 * step)

    scale = max(float(np.max(np.abs(g_adj))), float(np.max(np.abs(g_fd))), 1e-300)
    floor = 1e-6 * scale
    rel_fd = float(np.max(np.abs(g_adj - g_fd)
                          / np.maximum(np.maximum(np.abs(g_adj), np.abs(g_fd)), floor)))
    rel_bp = float(np.max(np.abs(g_adj - g_bp)
                          / np.maximum(np.maximum(np.abs(g_adj), np.abs(g_bp)), floor)))

    out = _out_dir(opts)
    lines = ["param_index,adjoint,backprop,finite_difference"]
    for i in range(net.n_params):
        lines.append(f"{i},{float(g_adj[i])!r},{float(g_bp[i])!r},{float(g_fd[i])!r}")
    path = out / "grad_check.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"loss={loss0:.6g} params={net.n_params} "
          f"(system {system.name}, {n_steps} steps, h={h})")
    print(f"max relative deviation: adjoint vs finite differences = {rel_fd:.3e}, "
          f"adjoint vs backprop = {rel_bp:.3e}")
    print(f"gradients {path}")
    return 0


def cmd_export_csv(opts):
    from .data import export_csv
    if not opts["data"]:
        raise UsageError("--data (dataset directory) is required")
    if opts["out"] is not None:
        out_path = pathlib.Path(opts["out"])
        out_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        out_path = _out_dir(opts) / f"{opts['which']}.csv"
    max_traj = opts["max_traj"]
    try:
        export_csv(opts["data"], out_path, which=opts["which"],
                   max_traj=None if max_traj is None else int(max_traj))
    except OSError as err:
        raise UsageError(f"cannot read dataset at {opts['data']}: {err}") from None
    print(f"wrote {out_path}")
    return 0


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "integrate": cmd_integrate,
    "profile": cmd_profile,
    "check-tableau": cmd_check_tableau,
    "grad-check": cmd_grad_check,
    "export-csv": cmd_export_csv,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _apply_thread_env(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; this tool reserves 2 for
        # numerical failure, so usage maps to 1 (and --help stays 0)
        return 0 if not exc.code else 1
    try:
        opts = _merge_options(namespace)
        return _HANDLERS[opts["cmd"]](opts)
    except Exception as err:
        from .integrators import NonFiniteError
        from .training import NumericalAbort
        if isinstance(err, (NonFiniteError, NumericalAbort)):
            print(f"numerical failure: {err}", file=sys.stderr)
            return 2
        if isinstance(err, (UsageError, OSError, ValueError, KeyError)):
            print(f"error: {err}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
