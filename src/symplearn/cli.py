"""Command-line front end for dataset generation, training, and diagnostics.

This module must not import numpy (or any submodule that does) at the top
level: --threads works by setting the BLAS thread-count environment variables,
which only take effect if they are set before numpy first loads.  Heavy
imports therefore live inside the command handlers.

Each option is declared once, in _build_parser: its flag, its default and
the parser its value goes through.  Option precedence is CLI flag > --config
JSON file > that default.  An option whose library call has a default of its
own (every TrainConfig and FpiConfig field, the gen-data sizes, integrate's
method, ...) defaults to None here and is passed only when given.  The config
file is a flat JSON object whose keys are the option names with underscores
(for example {"grad_mode": "backprop", "epochs": 5}); flag strings and config
values go through the same parser, and a value that does not parse exits 1
naming its flag or config key.  The thread cap is CLI-only, since a config
file is read too late to matter.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(solver blow-up or a training abort).
"""

import argparse
import dataclasses
import functools
import json
import math
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
# option parsers: flag strings and config-file JSON values go through the same
# one; a ValueError or TypeError is reported against the flag or config key


def _int(value):
    """An integer from a flag string or a JSON number; a fraction is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expects an integer, got {value!r}")
    return int(value)


def _float(value):
    """A finite number from a flag string or a JSON number; a JSON boolean,
    NaN or infinity is an error."""
    if isinstance(value, bool):
        raise ValueError(f"expects a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:            # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expects a finite number, got {value!r}")
    return number


def _flag(value):
    """A switch: the flag sets True; a config file must hold true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"expects true or false, got {value!r}")
    return value


def _numbers(kind):
    """Parser for a comma-separated list, or a JSON list, of kind."""
    def parse(value):
        if isinstance(value, str):
            value = value.replace(",", " ").split()
        return tuple(kind(v) for v in value)
    return parse


def _kv_floats(value):
    """K=V strings, or a JSON object, as {K: _float(V)}."""
    if isinstance(value, dict):
        return {str(k): _float(v) for k, v in value.items()}
    out = {}
    for item in value:
        if "=" not in item:
            raise ValueError(f"expects K=V, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = _float(v)
    return out


def _axis_slices(value):
    return {int(k): v for k, v in _kv_floats(value).items()}


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage problem as one error line and exit 1, where argparse
    prints its usage text and exits 2 (this tool's numerical-failure code)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser():
    """The argument parser, and per command option key -> (default, parser).

    opt() declares an option once: its flag, the default a handler sees when
    neither the flag nor the config file sets it (None leaves the value to
    the library call's own default), and its value parser.  Its flag carries
    no argparse type, so flag strings and config-file values parse alike.
    """
    S = argparse.SUPPRESS
    parser = _Parser(
        prog="symplearn",
        description="Learn Hamiltonians from noisy trajectories with a "
                    "symplectic solver in the loop.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    specs = {}

    def command(name, help_text, out_dir, seed=0):
        p = sub.add_parser(name, help=help_text)
        spec = specs[name] = {}

        def opt(flag, default=None, parse=str, **kw):
            spec[flag[2:].replace("-", "_")] = (default, parse)
            p.add_argument(flag, default=S, **kw)

        p.add_argument("--config", default=S,
                       help="JSON file of option defaults (CLI flags win)")
        opt("--seed", seed, _int, help="master seed for this command")
        opt("--out-dir", out_dir, help="directory all outputs are written under")
        p.add_argument("--threads", type=int, default=S,
                       help="cap BLAS/OpenMP threads (CLI-only; profile defaults to 1)")
        return opt

    def system_opts(opt, default):
        opt("--system", default)
        opt("--system-param", {}, _kv_floats, action="append", metavar="K=V")

    def solver_opts(opt):
        opt("--fpi-tol", None, _float)
        opt("--fpi-max-iters", None, _int)

    opt = command("gen-data", "integrate a benchmark system and store noisy trajectories",
                  "runs/dataset")
    system_opts(opt, "double_well")
    opt("--n-train", None, _int)
    opt("--n-val", None, _int)
    opt("--n-steps", None, _int)
    opt("--dt", None, _float)
    opt("--noise-std", None, _float)
    opt("--smoke", False, _flag, action="store_true",
        help="desk-scale sizes (1024 train / 256 val)")
    opt("--full", False, _flag, action="store_true",
        help="full-scale sizes (16384 train / 8192 val; the default)")

    # seed None: TrainConfig owns every training default, the seed included
    opt = command("train", "fit a Hamiltonian network to a stored dataset", "runs/train",
                  seed=None)
    opt("--data", help="dataset directory from gen-data")
    opt("--grad-mode", choices=["adjoint", "backprop"])
    opt("--window-steps", None, _int)
    opt("--stride", None, _int)
    opt("--batch-size", None, _int)
    opt("--epochs", None, _int)
    opt("--windows-per-traj", None, _int)
    opt("--lr", None, _float)
    solver_opts(opt)
    opt("--hidden", None, _numbers(_int), metavar="H1,H2,...")
    opt("--val-batches", None, _int)

    opt = command("eval", "score a checkpoint against a known system on a phase-space grid",
                  "runs/eval")
    opt("--checkpoint", help="model .json header path")
    opt("--oracle", False, _flag, action="store_true",
        help="score the true system against itself (pipeline check)")
    system_opts(opt, "double_well")
    opt("--grid-points", None, _int)
    opt("--slice", {}, _axis_slices, action="append", metavar="AXIS=VALUE",
        help="fix a non-grid coordinate (default 0.0)")
    opt("--drift-steps", 1000, _int)
    opt("--drift-h", 0.01, _float)
    opt("--fpi-tol", None, _float)

    opt = command("integrate", "roll a system or checkpoint forward and dump the trajectory CSV",
                  "runs/integrate")
    system_opts(opt, None)
    opt("--checkpoint")
    opt("--method")
    opt("--h", 0.01, _float)
    opt("--n-steps", 1000, _int)
    opt("--y0", None, _numbers(_float), metavar="X1,X2,...")
    solver_opts(opt)

    opt = command("profile", "memory/runtime comparison of the two gradient engines",
                  "runs/profile")
    opt("--system")
    opt("--batch-size", None, _int)
    opt("--window-steps", None, _numbers(_int), metavar="N1,N2,...")
    opt("--h", None, _float)
    opt("--repeats", None, _int)

    opt = command("check-tableau", "verify the symplecticity conditions of a coefficient pair",
                  "runs/check-tableau")
    opt("--method", help="registered tableau name")
    opt("--file", help="JSON file with a_q, b_q, a_p, b_p arrays")
    opt("--tol", None, _float)

    opt = command("grad-check", "compare costate, reverse-tape, and finite-difference gradients",
                  "runs/grad-check")
    system_opts(opt, "coupled_ho")
    opt("--hidden", (8,), _numbers(_int), metavar="H1,H2,...")
    opt("--window-steps", 4, _int)
    opt("--batch-size", 4, _int)
    opt("--h", 0.01, _float)
    opt("--fd-step", 1e-5, _float)
    opt("--fpi-tol", 1e-12, _float)

    opt = command("export-csv", "dump stored trajectories as CSV", "runs/export")
    opt("--data")
    opt("--which", "noisy", choices=["noisy", "clean"])
    opt("--max-traj", None, _int)
    opt("--out", help="output CSV path (default under --out-dir)")

    return parser, specs


def _merge_options(namespace, specs):
    """Option values of the parsed command: flag > config file > default,
    every given value through its option's parser.  A JSON null counts as
    not given."""
    flags = dict(vars(namespace))
    cmd = flags.pop("cmd")
    flags.pop("threads", None)
    config_path = flags.pop("config", None)
    spec = specs[cmd]
    given = {}
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
            if key not in spec:
                raise UsageError(f"config key {key!r} is not an option of {cmd}")
            given[key] = (value, f"config key {key!r}")
    given.update((key, (value, "--" + key.replace("_", "-")))
                 for key, value in flags.items())
    opts = {key: default for key, (default, _) in spec.items()}
    for key, (value, source) in given.items():
        if value is None:
            continue
        try:
            opts[key] = spec[key][1](value)
        except (TypeError, ValueError) as err:
            raise UsageError(f"{source}: {err}") from None
    opts["cmd"] = cmd
    return opts


def _out_dir(opts):
    path = pathlib.Path(opts["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _given(opts, names):
    """Keyword arguments for the options in names (option key -> parameter)
    that are set; the callee's own defaults fill in the rest."""
    return {param: opts[key] for key, param in names.items()
            if opts.get(key) is not None}


def _fpi(opts):
    """FpiConfig from the solver options given; FpiConfig fills in the rest."""
    from .integrators import FpiConfig
    return FpiConfig(**_given(opts, {"fpi_tol": "tol", "fpi_max_iters": "max_iters"}))


def _random_state(system, seed):
    """One start state drawn uniformly from the system's phase-space box."""
    import numpy as np
    rng = np.random.default_rng((seed, 5))
    lo, hi = system.bounds[:, 0], system.bounds[:, 1]
    return lo + (hi - lo) * rng.random(2 * system.dim)


def _write_csv(path, header, rows):
    from .data import csv_lines, open_atomically
    with open_atomically(path) as fh:
        fh.writelines(csv_lines(header, rows))


# ----------------------------------------------------------------------
# handlers


def cmd_gen_data(opts):
    from .data import FULL_SCALE, SMOKE_SCALE, generate_dataset
    if opts["smoke"] and opts["full"]:
        raise UsageError("--smoke and --full are mutually exclusive")
    sizes = {**(SMOKE_SCALE if opts["smoke"] else FULL_SCALE),
             **_given(opts, {k: k for k in ("n_train", "n_val", "n_steps", "dt", "noise_std")})}
    out = _out_dir(opts)
    manifest, _, _ = generate_dataset(opts["system"], out, seed=opts["seed"],
                                      system_params=opts["system_param"], **sizes)
    print(f"wrote {manifest.system} dataset to {out}: "
          f"n_train={manifest.n_train} n_val={manifest.n_val} "
          f"n_steps={manifest.n_steps} dt={manifest.dt} noise_std={manifest.noise_std}")
    return 0


def _train_config(opts):
    """TrainConfig from the training options given; TrainConfig fills in the rest."""
    from .training import TrainConfig
    fields = {f.name: f.name for f in dataclasses.fields(TrainConfig)}
    return TrainConfig(fpi=_fpi(opts), **_given(opts, fields))


def cmd_train(opts):
    from .data import load_dataset, open_atomically
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
    with open_atomically(out / "metrics.csv") as fh:
        fh.write(metrics_to_csv(result.metrics))
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

    from .data import open_atomically
    from .evaluation import energy_drift, evaluate_ood
    from .systems import get_system
    system = get_system(opts["system"], **opts["system_param"])
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
        h_fn = functools.partial(net.eval_h, theta)
        dyn_fn = net.field(theta)
        source = str(opts["checkpoint"])

    report, points = evaluate_ood(h_fn, dyn_fn, system, slices=opts["slice"], **_given(
        opts, {"grid_points": "points_per_axis"}))

    y0 = _random_state(system, opts["seed"])
    cfg = _fpi(opts)
    for key, h_ref in (("drift_model_h", h_fn), ("drift_true_h", system.hamiltonian)):
        report[key] = energy_drift(dyn_fn, h_ref, y0, opts["drift_h"], opts["drift_steps"],
                                   cfg=cfg)
    report["system"] = system.name
    report["source"] = source

    out = _out_dir(opts)
    with open_atomically(out / "eval.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    pts = points["pts"]
    columns = ["h_true", "h_pred", "h_err_aligned", "dyn_l2_err"]
    _write_csv(out / "grid.csv", [f"x{i}" for i in range(pts.shape[1])] + columns,
               np.column_stack([pts] + [points[name] for name in columns]))

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
    y0 = opts["y0"]
    if opts["system"]:
        from .systems import get_system
        system = get_system(opts["system"], **opts["system_param"])
        field, h_fn, dim = system.dynamics, system.hamiltonian, system.dim
        if y0 is None:
            y0 = _random_state(system, opts["seed"])
        label = system.name
    else:
        from .model import load_checkpoint
        net, theta, _ = load_checkpoint(opts["checkpoint"])
        if y0 is None:
            raise UsageError("--y0 is required when integrating a checkpoint")
        field = net.field(theta)
        h_fn = functools.partial(net.eval_h, theta)
        dim = net.dim
        label = f"checkpoint:{opts['checkpoint']}"
    y0 = np.array(y0, dtype=np.float64)
    if y0.shape != (2 * dim,):
        raise UsageError(f"--y0 needs {2 * dim} coordinates, got {y0.size}")

    traj, reports = integrate(field, y0, opts["h"], opts["n_steps"], cfg=_fpi(opts), dim=dim,
                              **_given(opts, {"method": "method"}))
    out = _out_dir(opts)
    path = out / "trajectory.csv"
    _write_csv(path, ["step", "t"] + [f"x{i}" for i in range(2 * dim)],
               ([k, t, *y] for k, (t, y) in enumerate(zip(traj.times, traj.states))))

    h_vals = np.asarray(h_fn(traj.states), dtype=np.float64)
    drift = float(np.max(np.abs(h_vals - h_vals[0])))
    mean_iters = float(np.mean([r.iterations for r in reports]))
    method = f" ({opts['method']})" if opts["method"] else ""
    print(f"integrated {label} for {opts['n_steps']} steps at h={opts['h']}{method}; "
          f"energy drift {drift:.3e}, mean solver iterations {mean_iters:.2f}")
    print(f"trajectory {path}")
    return 0


def cmd_profile(opts):
    from .data import open_atomically
    from .profiling import profile_gradient_modes, profile_to_csv
    rows = profile_gradient_modes(seed=opts["seed"], **_given(opts, {
        "system": "system_name", "batch_size": "batch_size",
        "window_steps": "window_steps", "h": "h", "repeats": "repeats"}))
    out = _out_dir(opts)
    path = out / "profile.csv"
    with open_atomically(path) as fh:
        fh.write(profile_to_csv(rows))
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
        if not isinstance(raw, dict):
            raise UsageError(f"tableau file {opts['file']} must hold a JSON object")
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
        except (TypeError, OverflowError) as err:
            raise UsageError(f"tableau file holds a coefficient that is not a float64: "
                             f"{err}") from None
    report = check_symplectic_tableau(tableau, **_given(opts, {"tol": "tol"}))
    verdict = "symplectic" if report.symplectic else "NOT symplectic"
    tol = f" (tol {opts['tol']})" if opts["tol"] is not None else ""
    print(f"{tableau.name}: {verdict}{tol}")
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

    step = opts["fd_step"]                 # finite: its option parser checks that
    if step <= 0:
        raise ValueError(f"fd_step must be positive, got {step!r}")
    system = get_system(opts["system"], **opts["system_param"])
    net = HamiltonianNet(system.dim, hidden=opts["hidden"])
    seed, h, n_steps = opts["seed"], opts["h"], opts["window_steps"]
    theta = net.init_params(seed)
    windows = profile_windows(system, opts["batch_size"], n_steps, h, seed)

    def config(mode):
        return TrainConfig(grad_mode=mode, window_steps=n_steps, fpi=_fpi(opts),
                           seed=seed)

    loss0, g_adj, _ = loss_and_grad(net, theta, windows, h, config("adjoint"))
    _, g_bp, _ = loss_and_grad(net, theta, windows, h, config("backprop"))

    cfg_fwd = config("adjoint")
    g_fd = np.empty(net.n_params)
    for i in range(net.n_params):
        bump = np.zeros(net.n_params)
        bump[i] = step
        up = _forward_loss(net, theta + bump, windows, h, cfg_fwd)
        dn = _forward_loss(net, theta - bump, windows, h, cfg_fwd)
        g_fd[i] = (up - dn) / (2.0 * step)

    scale = max(float(np.max(np.abs(g_adj))), float(np.max(np.abs(g_fd))), 1e-300)

    def rel_deviation(g):
        """Max over parameters of |g_adj - g| / max(|g_adj|, |g|, 1e-6 scale)."""
        return float(np.max(np.abs(g_adj - g) / np.maximum(
            np.maximum(np.abs(g_adj), np.abs(g)), 1e-6 * scale)))

    out = _out_dir(opts)
    path = out / "grad_check.csv"
    _write_csv(path, ["param_index", "adjoint", "backprop", "finite_difference"],
               zip(range(net.n_params), g_adj, g_bp, g_fd))

    print(f"loss={loss0:.6g} params={net.n_params} "
          f"(system {system.name}, {n_steps} steps, h={h})")
    print(f"max relative deviation: adjoint vs finite differences = "
          f"{rel_deviation(g_fd):.3e}, adjoint vs backprop = {rel_deviation(g_bp):.3e}")
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
    try:
        export_csv(opts["data"], out_path, which=opts["which"], max_traj=opts["max_traj"])
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
    parser, specs = _build_parser()
    try:
        opts = _merge_options(parser.parse_args(argv), specs)
        return _HANDLERS[opts["cmd"]](opts)
    except SystemExit:               # --help has printed its text
        return 0
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
