"""Command-line front end for dataset generation, training, and diagnostics.

This module must not import numpy (or any submodule that does) at the top
level: --threads works by setting the BLAS thread-count environment variables,
which only take effect if they are set before numpy first loads.  Heavy
imports therefore live inside the command handlers.

Each command and option is declared once, in _build_parser: a command with
the handler main dispatches it to, an option with its flag, its default and
the parser its value goes through; a command declares only the options its
handler reads (--seed and --out-dir too).  Option precedence is CLI flag > --config
JSON file > that default.  An option whose library call has a default of its
own (every TrainConfig and FpiConfig field, the gen-data sizes, integrate's
method, ...) defaults to None here and is passed only when given; an unset
solver option takes train's value from TrainConfig().fpi and every other
command's from FpiConfig().  The config
file is a flat JSON object whose keys are the option names with underscores
(for example {"grad_mode": "backprop", "epochs": 5}); flag strings and config
values go through the same parser, and a value that does not parse exits 1
naming its flag or config key.  The thread cap is CLI-only, since a config
file is read too late to matter: --threads is read by the one parser, as an
integer like every other option, and _merge_options sets the BLAS variables
before any handler imports numpy.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
Exit 1 is a ValueError, OSError, KeyError or MemoryError: a bad flag or
value, a size too large to allocate, or a file that cannot be read or does
not hold what it should; the four JSON files (config, tableau, dataset
manifest, checkpoint header) all go through data._read_json, whose error
names the file.  Exit 2 is a NonFiniteError from any command (a non-finite
state, loss or gradient, a singular costate solve, or a solve that stopped
at max_iters short of its tolerance).  A failure prints one line on stderr:
handlers run with NumPy's floating-point warnings off.
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


def _text(value):
    """A string: a flag always is one; a config file must hold a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"expects a string, got {value!r}")
    return value


def _numbers(kind):
    """Parser for a comma-separated string, or a JSON list, of kind."""
    def parse(value):
        if isinstance(value, str):
            value = value.replace(",", " ").split()
        elif not isinstance(value, list):
            raise ValueError(f"expects a list or a comma-separated string, got {value!r}")
        return tuple(kind(v) for v in value)
    return parse


def _kv_floats(value):
    """A list of K=V strings (a repeated flag), or a JSON object, as
    {K: _float(V)}."""
    if isinstance(value, dict):
        return {str(k): _float(v) for k, v in value.items()}
    if not isinstance(value, list):
        raise ValueError(f"expects a list of K=V strings or an object, got {value!r}")
    out = {}
    for item in value:
        if not isinstance(item, str) or "=" not in item:
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
        raise ValueError(f"{self.prog}: {message}")


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

    def command(name, help_text, handler, out_dir=None, seed=None):
        """A subcommand bound to its handler, and its option declarer.
        --out-dir and --seed are declared with the defaults given, and only
        for a command that reads them (None leaves one out)."""
        # no prefix matching: a flag a command lacks (--out) must not pass as one it has
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        spec = specs[name] = {}

        def opt(flag, default=None, parse=_text, **kw):
            spec[flag[2:].replace("-", "_")] = (default, parse)
            p.add_argument(flag, default=S, **kw)

        p.add_argument("--config", default=S,
                       help="JSON file of option defaults (CLI flags win)")
        if seed is not None:
            opt("--seed", seed, _int, help="master seed for this command")
        if out_dir is not None:
            opt("--out-dir", out_dir, help="directory all outputs are written under")
        p.add_argument("--threads", type=int, default=S,
                       help="cap BLAS/OpenMP threads (CLI-only)")
        return opt

    def system_opts(opt, default):
        opt("--system", default)
        opt("--system-param", {}, _kv_floats, action="append", metavar="K=V")

    def source_opts(opt):
        system_opts(opt, "double_well")
        opt("--checkpoint", help="model .json header path (default: the system's own H)")

    def solver_opts(opt):
        opt("--fpi-tol", None, _float)
        opt("--fpi-max-iters", None, _int)

    opt = command("gen-data", "integrate a benchmark system and store noisy trajectories",
                  cmd_gen_data, "runs/dataset", seed=0)
    system_opts(opt, "double_well")
    opt("--n-train", None, _int)
    opt("--n-val", None, _int)
    opt("--n-steps", None, _int)
    opt("--dt", None, _float)
    opt("--noise-std", None, _float)
    opt("--smoke", False, _flag, action="store_true",
        help="desk-scale sizes (1024 train / 256 val; the default is 16384 / 8192)")

    opt = command("train", "fit a Hamiltonian network to a stored dataset", cmd_train,
                  "runs/train")
    opt("--data", help="dataset directory from gen-data")
    # default None: TrainConfig owns every training default, the seed included
    opt("--seed", None, _int, help="master seed for this command")
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

    opt = command("eval", "score a checkpoint (or the system itself) against the system "
                  "on a phase-space grid", cmd_eval, "runs/eval", seed=0)
    source_opts(opt)
    opt("--grid-points", None, _int)
    opt("--slice", {}, _axis_slices, action="append", metavar="AXIS=VALUE",
        help="fix a non-grid coordinate (default 0.0)")
    opt("--drift-steps", 1000, _int)
    opt("--drift-h", 0.01, _float)
    opt("--fpi-tol", None, _float)

    opt = command("integrate", "roll a system or checkpoint forward and dump the trajectory CSV",
                  cmd_integrate, "runs/integrate", seed=0)
    source_opts(opt)
    opt("--method")
    opt("--h", 0.01, _float)
    opt("--n-steps", 1000, _int)
    opt("--y0", None, _numbers(_float), metavar="X1,X2,...")
    solver_opts(opt)

    opt = command("check-tableau", "verify the symplecticity conditions of a coefficient pair",
                  cmd_check_tableau)
    opt("--method", help="registered tableau name")
    opt("--file", help="JSON file with a_q, b_q, a_p, b_p arrays")
    opt("--tol", None, _float)

    opt = command("grad-check", "compare costate, reverse-tape, and finite-difference gradients",
                  cmd_grad_check, "runs/grad-check", seed=0)
    system_opts(opt, "coupled_ho")
    opt("--hidden", (8,), _numbers(_int), metavar="H1,H2,...")
    opt("--window-steps", 4, _int)
    opt("--batch-size", 4, _int)
    opt("--h", 0.01, _float)
    opt("--fd-step", 1e-5, _float)
    opt("--fpi-tol", 1e-12, _float)

    opt = command("export-csv", "dump stored trajectories as CSV", cmd_export_csv,
                  "runs/export")
    opt("--data")
    opt("--which", "noisy", choices=["noisy", "clean"])
    opt("--max-traj", None, _int)

    return parser, specs


def _merge_options(namespace, specs):
    """Option values of the parsed command: flag > config file > default,
    every given value through its option's parser.  A JSON null counts as
    not given.  First caps the BLAS threads at --threads, if given, while
    numpy is still unloaded."""
    flags = dict(vars(namespace))
    cmd = flags.pop("cmd")
    del flags["handler"]             # main's dispatch, bound by command()
    threads = flags.pop("threads", None)
    if threads is not None:
        if threads < 1:
            raise ValueError(f"--threads expects a positive integer, got {threads}")
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(threads)
    config_path = flags.pop("config", None)
    spec = specs[cmd]
    given = {}
    if config_path is not None:
        from .data import _read_json     # loads numpy: only once the threads are capped
        file_cfg = _read_json(config_path)
        if "threads" in file_cfg:
            raise ValueError("threads must be passed on the command line "
                             "(a config file loads after numpy)")
        for key, value in file_cfg.items():
            if key not in spec:
                raise ValueError(f"config key {key!r} is not an option of {cmd}")
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
            raise ValueError(f"{source}: {err}") from None
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


def _fpi(opts, base=None):
    """The solver options given, over base: FpiConfig() unless the caller
    has solver defaults of its own (train's are TrainConfig's)."""
    from .integrators import FpiConfig
    return dataclasses.replace(base or FpiConfig(),
                               **_given(opts, {"fpi_tol": "tol", "fpi_max_iters": "max_iters"}))


def _random_state(system, seed):
    """One start state, drawn as dataset starts are (below any energy cap)."""
    import numpy as np

    from .data import sample_initial_conditions
    return sample_initial_conditions(system, 1, np.random.default_rng((seed, 5)))[0]


# ----------------------------------------------------------------------
# handlers


def cmd_gen_data(opts):
    from .data import FULL_SCALE, SMOKE_SCALE, generate_dataset
    sizes = {**(SMOKE_SCALE if opts["smoke"] else FULL_SCALE),
             **_given(opts, {k: k for k in ("n_train", "n_val", "n_steps", "dt", "noise_std")})}
    out = pathlib.Path(opts["out_dir"])   # generate_dataset makes it once the solve succeeds
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
    return TrainConfig(fpi=_fpi(opts, TrainConfig().fpi), **_given(opts, fields))


def cmd_train(opts):
    """Train; --out-dir is made once epoch 0 is scored, metrics.csv rewritten
    as each epoch ends, and the checkpoint written after the last one."""
    from .data import load_dataset, write_csv
    from .model import save_checkpoint
    from .training import saturation_epoch, train
    if not opts["data"]:
        raise ValueError("--data (dataset directory) is required")
    manifest, _, noisy = load_dataset(opts["data"])
    config = _train_config(opts)
    rows = []
    for row, net, theta in train(manifest, noisy, config):
        rows.append(row)
        out = _out_dir(opts)
        write_csv(out / "metrics.csv", list(row), (r.values() for r in rows))
    header_path, _ = save_checkpoint(out / "model.json", net, theta, seed=config.seed)
    first, last = rows[0], rows[-1]
    print(f"trained {config.epochs} epochs on {manifest.system} "
          f"({config.grad_mode} gradients)")
    print(f"train loss {first['train_loss']:.6g} -> {last['train_loss']:.6g}, "
          f"val loss {first['val_loss']:.6g} -> {last['val_loss']:.6g}, "
          f"saturation epoch {saturation_epoch([r['val_loss'] for r in rows[1:]])}")
    print(f"checkpoint {header_path}, metrics {out / 'metrics.csv'}")
    return 0


def _source(opts):
    """The system --system and --system-param name, and the energy and field
    a command scores or rolls out: the system's own or, with --checkpoint,
    the model's, which must have the system's dimension.  Returns (system,
    h_fn, field)."""
    from .systems import get_system
    system = get_system(opts["system"], **opts["system_param"])
    if not opts["checkpoint"]:
        return system, system.hamiltonian, system.dynamics
    from .model import load_checkpoint
    net, theta, _ = load_checkpoint(opts["checkpoint"])
    if net.dim != system.dim:
        raise ValueError(f"checkpoint {opts['checkpoint']} has dim {net.dim}, "
                         f"system {system.name} has dim {system.dim}")
    return system, functools.partial(net.eval_h, theta), net.field(theta)


def cmd_eval(opts):
    import numpy as np

    from .data import open_atomically, write_csv
    from .evaluation import energy_drift, evaluate_ood
    from .integrators import integrate
    system, h_fn, dyn_fn = _source(opts)
    report, points = evaluate_ood(h_fn, dyn_fn, system, slices=opts["slice"], **_given(
        opts, {"grid_points": "points_per_axis"}))

    states, _ = integrate(dyn_fn, _random_state(system, opts["seed"]), opts["drift_h"],
                          opts["drift_steps"], cfg=_fpi(opts))
    report["drift_model_h"] = energy_drift(h_fn, states)
    report["drift_true_h"] = energy_drift(system.hamiltonian, states)
    report["system"] = system.name
    report["source"] = opts["checkpoint"] or f"oracle:{system.name}"

    out = _out_dir(opts)
    with open_atomically(out / "eval.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    pts = points["pts"]
    columns = ["h_true", "h_pred", "h_err_aligned", "dyn_l2_err"]
    write_csv(out / "grid.csv", [f"x{i}" for i in range(pts.shape[1])] + columns,
              np.column_stack([pts] + [points[name] for name in columns]))

    print(f"h_l1_mean={report['h_l1_mean']:.6g} h_l1_max={report['h_l1_max']:.6g} "
          f"dyn_l2_mean={report['dyn_l2_mean']:.6g} "
          f"drift_true_h={report['drift_true_h']:.6g}")
    print(f"report {out / 'eval.json'}, grid {out / 'grid.csv'}")
    return 0


def cmd_integrate(opts):
    import numpy as np

    from .data import write_csv
    from .evaluation import energy_drift
    from .integrators import integrate
    system, h_fn, field = _source(opts)
    label = f"checkpoint:{opts['checkpoint']}" if opts["checkpoint"] else system.name
    y0 = np.array(_random_state(system, opts["seed"]) if opts["y0"] is None else opts["y0"],
                  dtype=np.float64)
    if y0.shape != (system.width,):
        raise ValueError(f"--y0 needs {system.width} coordinates, got {y0.size}")

    states, reports = integrate(field, y0, opts["h"], opts["n_steps"], cfg=_fpi(opts),
                                **_given(opts, {"method": "method"}))
    drift = energy_drift(h_fn, states)
    out = _out_dir(opts)
    path = out / "trajectory.csv"
    write_csv(path, ["step", "t"] + [f"x{i}" for i in range(system.width)],
              ([k, k * opts["h"], *y] for k, y in enumerate(states)))

    mean_iters = float(np.mean([r.iterations for r in reports]))
    method = f" ({opts['method']})" if opts["method"] else ""
    print(f"integrated {label} for {opts['n_steps']} steps at h={opts['h']}{method}; "
          f"energy drift {drift:.3e}, mean solver iterations {mean_iters:.2f}")
    print(f"trajectory {path}")
    return 0


def cmd_check_tableau(opts):
    from .integrators import PrkTableau, TABLEAUX, check_symplectic_tableau
    if bool(opts["method"]) == bool(opts["file"]):
        raise ValueError("pass exactly one of --method or --file")
    if opts["method"]:
        name = opts["method"]
        if name not in TABLEAUX:
            raise ValueError(f"unknown tableau {name!r}; known: {sorted(TABLEAUX)}")
        tableau = TABLEAUX[name]
    else:
        from .data import _read_json
        path = pathlib.Path(opts["file"])
        fields = _read_json(path, keys={"name", "a_q", "b_q", "a_p", "b_p"}, optional={"name"})
        try:
            tableau = PrkTableau(**{"name": path.stem, **fields})
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
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

    from .data import write_csv
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
    adjoint, backprop = (TrainConfig(grad_mode=mode, fpi=_fpi(opts))
                         for mode in ("adjoint", "backprop"))

    loss0, g_adj, _ = loss_and_grad(net, theta, windows, h, adjoint)
    _, g_bp, _ = loss_and_grad(net, theta, windows, h, backprop)

    g_fd = np.empty(net.n_params)
    for i in range(net.n_params):
        bump = np.zeros(net.n_params)
        bump[i] = step
        up = _forward_loss(net.field(theta + bump), windows, h, adjoint)
        dn = _forward_loss(net.field(theta - bump), windows, h, adjoint)
        g_fd[i] = (up - dn) / (2.0 * step)

    scale = max(float(np.max(np.abs(g_adj))), float(np.max(np.abs(g_fd))), 1e-300)

    def rel_deviation(g):
        """Max over parameters of |g_adj - g| / max(|g_adj|, |g|, 1e-6 scale)."""
        return float(np.max(np.abs(g_adj - g) / np.maximum(
            np.maximum(np.abs(g_adj), np.abs(g)), 1e-6 * scale)))

    out = _out_dir(opts)
    path = out / "grad_check.csv"
    write_csv(path, ["param_index", "adjoint", "backprop", "finite_difference"],
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
        raise ValueError("--data (dataset directory) is required")
    # export_csv makes the directory only once the dataset has loaded
    out_path = export_csv(opts["data"], pathlib.Path(opts["out_dir"]) / f"{opts['which']}.csv",
                          which=opts["which"], max_traj=opts["max_traj"])
    print(f"wrote {out_path}")
    return 0


def main(argv=None):
    parser, specs = _build_parser()
    try:
        namespace = parser.parse_args(argv)
        opts = _merge_options(namespace, specs)
        import numpy as np           # only now: --threads is applied
        with np.errstate(all="ignore"):
            return namespace.handler(opts)
    except SystemExit:               # --help has printed its text
        return 0
    except Exception as err:
        from .integrators import NonFiniteError
        if isinstance(err, NonFiniteError):
            print(f"numerical failure: {err}", file=sys.stderr)
            return 2
        if isinstance(err, (OSError, ValueError, KeyError, MemoryError)):
            print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
