"""Command-line interface: exit codes, option precedence, and the file
contracts of each subcommand.  Commands run in-process through cli.main so
exit codes and output are observable directly; the module entry point, the
installed console script, the import-order guarantee and the thread cap get
one subprocess check each."""

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from oracles import broadcasting_field

from symplearn import cli, integrators
from symplearn.cli import _THREAD_ENV_VARS, main
from symplearn.data import FULL_SCALE, SMOKE_SCALE
from symplearn.integrators import FpiConfig, NonFiniteError
from symplearn.model import HamiltonianNet, load_checkpoint
from symplearn.training import TrainConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    code = main(["gen-data", "--system", "double_well", "--n-train", "8",
                 "--n-val", "2", "--n-steps", "60", "--seed", "7",
                 "--out-dir", str(root)])
    assert code == 0
    return root


TRAIN_FLAGS = ["--window-steps", "2", "--stride", "10", "--batch-size", "8",
               "--windows-per-traj", "4", "--hidden", "8", "--lr", "0.02",
               "--val-batches", "1", "--seed", "3"]


def run_train(dataset, out, *extra):
    return main(["train", "--data", str(dataset), "--out-dir", str(out),
                 *TRAIN_FLAGS, *extra])


def read_metrics(out):
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    assert run_train(dataset, out, "--epochs", "1") == 0
    return out / "model.json"


# ------------------------------------------------------------------ exit codes

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_usage_problems_exit_one(tmp_path, capsys):
    assert main([]) == 1                      # missing command
    assert main(["no-such-command"]) == 1
    assert main(["train", "--no-such-flag"]) == 1
    assert main(["check-tableau", "--meth", "gauss2"]) == 1   # no prefix matching
    assert main(["train"]) == 1               # --data is required
    out = ["--out-dir", str(tmp_path / "o")]
    assert main(["gen-data", "--system-param", "alpha", *out]) == 1
    assert main(["eval", "--slice", "x=1", *out]) == 1
    assert main(["integrate", "--system", "coupled_ho", "--y0", "a,b", *out]) == 1
    assert main(["train", "--hidden", "a,b", *out]) == 1
    capsys.readouterr()


def test_unknown_system_exits_one(tmp_path, capsys):
    code = main(["gen-data", "--system", "lorenz", "--n-train", "1",
                 "--n-val", "1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "unknown system" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["gen-data", "--smoke"], ["eval"], ["integrate"]])
def test_unknown_system_param_exits_one(tmp_path, capsys, cmd):
    code = main([*cmd, "--system-param", "foo=1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "'double_well'" in err and "['foo']" in err and "['width_scale']" in err


@pytest.mark.parametrize("width", ["0", "-1"])
def test_double_well_width_scale_must_be_positive(width, tmp_path, capsys):
    # a zero box would put every start on the fixed point (0, 0), and a
    # negative one is no box; either way the line must name the parameter
    code = main(["gen-data", "--system-param", f"width_scale={width}", "--n-train", "2",
                 "--n-val", "1", "--out-dir", str(tmp_path / "ds")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: double_well width_scale must be positive, got {float(width)!r}\n"
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("argv, name", [
    (["grad-check", "--fd-step", "0"], "fd_step"),
    (["eval", "--grid-points", "0"], "points_per_axis"),
    (["eval", "--grid-points", "3", "--drift-steps", "0"], "n_steps"),
    (["eval", "--system", "double_well", "--slice", "7=0.5"], "slice axis"),
    (["eval", "--system", "henon_heiles", "--slice=-1=0.5"], "slice axis"),
    (["grad-check", "--hidden", ""], "hidden"),
    (["grad-check", "--batch-size", "0"], "batch_size"),
    (["check-tableau", "--method", "gauss2", "--tol", "-1"], "tol"),
], ids=["fd-step", "grid-points", "drift-steps", "slice-axis-above", "slice-axis-negative",
        "grad-check-hidden", "grad-check-batch-size", "tableau-tol"])
def test_numeric_values_below_their_range_exit_one(tmp_path, capsys, argv, name):
    # check-tableau writes no file, so it takes no --out-dir
    out = [] if argv[0] == "check-tableau" else ["--out-dir", str(tmp_path / "x")]
    assert main([*argv, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ") and len(err.splitlines()) == 1


def parsed(argv):
    """The option values a command line gives its handler."""
    parser, specs = cli._build_parser()
    return cli._merge_options(parser.parse_args(argv), specs)


def test_train_solver_options_fall_back_to_the_training_default(tmp_path):
    # train's unset solver options come from TrainConfig, not FpiConfig
    train_fpi = TrainConfig().fpi
    assert train_fpi.tol != FpiConfig().tol
    assert cli._train_config(parsed(["train"])).fpi == train_fpi
    want = dataclasses.replace(train_fpi, max_iters=40)
    assert cli._train_config(parsed(["train", "--fpi-max-iters", "40"])).fpi == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fpi_max_iters": 40}))
    assert cli._train_config(parsed(["train", "--config", str(cfg)])).fpi == want
    assert cli._train_config(parsed(["train", "--fpi-tol", "1e-9"])).fpi.tol == 1e-9


@pytest.mark.parametrize("argv", [
    ["eval", "--grid-points", "3", "--drift-steps", "5"],
    ["integrate", "--system", "coupled_ho", "--n-steps", "5"],
], ids=lambda argv: argv[0])
def test_rollout_commands_solve_to_the_fpi_default(argv, tmp_path, monkeypatch, capsys):
    # eval and integrate roll out long trajectories: without --fpi-tol they
    # keep FpiConfig()'s tight solve, whatever training uses
    seen, rollout = [], integrators.integrate

    def recording(*args, **kw):
        seen.append(kw["cfg"])
        return rollout(*args, **kw)

    monkeypatch.setattr(integrators, "integrate", recording)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert seen == [FpiConfig()]


def test_train_options_are_the_train_config_fields():
    # _train_config forwards only TrainConfig fields, so a train option
    # that is not one would be parsed and silently ignored
    from symplearn.training import TrainConfig
    _, specs = cli._build_parser()
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(specs["train"]) == (fields - {"fpi"}) | {"data", "out_dir", "fpi_tol",
                                                          "fpi_max_iters"}


def test_readme_command_tables_name_every_subcommand():
    # the quick start's commands and the "Other subcommands" table together
    # name each subcommand once, so adding or deleting one leaves README stale
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    quick = readme.split("## Quick start (CLI)")[1].split("```")[1]
    table = readme.split("Other subcommands:")[1].split("\n\n")[1]
    named = (re.findall(r"^symplearn ([\w-]+)", quick, re.M)
             + re.findall(r"^\| `([\w-]+)` \|", table, re.M))
    _, specs = cli._build_parser()
    assert sorted(named) == sorted(specs)


class _ReadRecorder(dict):
    """Option values that remember every key a handler reads."""

    def __init__(self, opts):
        super().__init__(opts)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n-train", "2", "--n-val", "1", "--n-steps", "4", "--out-dir", "{out}"],
    ["train", "--data", "{data}", *TRAIN_FLAGS, "--epochs", "1", "--out-dir", "{out}"],
    ["eval", "--grid-points", "3", "--drift-steps", "5", "--out-dir", "{out}"],
    ["integrate", "--system", "coupled_ho", "--n-steps", "5", "--out-dir", "{out}"],
    ["check-tableau", "--method", "gauss2"],
    ["grad-check", "--hidden", "2", "--window-steps", "1", "--batch-size", "2",
     "--out-dir", "{out}"],
    ["export-csv", "--data", "{data}", "--max-traj", "1", "--out-dir", "{out}"],
], ids=lambda argv: argv[0])
def test_every_declared_option_is_read(argv, dataset, tmp_path, monkeypatch, capsys):
    # an option the handler never reads would be accepted and silently ignored
    merge, runs = cli._merge_options, []

    def recording(*args):
        runs.append(_ReadRecorder(merge(*args)))
        return runs[-1]

    monkeypatch.setattr(cli, "_merge_options", recording)
    assert main([a.format(data=dataset, out=tmp_path / "out") for a in argv]) == 0
    capsys.readouterr()
    _, specs = cli._build_parser()
    assert set(specs[argv[0]]) - runs[0].read == set()


def test_window_longer_than_the_trajectories_exits_one(tmp_path, capsys):
    # 7 steps of stride 25 span 176 stored points and a smoke trajectory
    # has 161; the window sampler's check reports it before any solve, and
    # no output directory is made
    ds = tmp_path / "ds"
    assert main(["gen-data", "--smoke", "--n-train", "4", "--n-val", "2",
                 "--out-dir", str(ds)]) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(ds), "--window-steps", "7", "--stride", "25",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: window needs 176 stored points, trajectories have 161\n"
    assert not (tmp_path / "out").exists()


def test_missing_dataset_names_the_path(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nowhere"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert str(tmp_path / "nowhere") in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"), ("--windows-per-traj", "0"), ("--val-batches", "0"),
    ("--epochs", "-1"), ("--lr", "nan"), ("--no-such-flag", "1"), ("--hidden", ""),
])
def test_bad_train_values_exit_one(dataset, tmp_path, capsys, flag, value):
    assert run_train(dataset, tmp_path / "out", flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _append(name, extra):
    def mutate(root):
        with open(root / name, "ab") as fh:
            fh.write(extra)
    return mutate


def _poke(name, index, value):
    def mutate(root):
        data = np.fromfile(root / name, dtype="<f8")
        data[index] = value
        data.tofile(root / name)
    return mutate


def _manifest(**changes):
    def mutate(root):
        raw = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**raw, **changes}))
    return mutate


# the fixture dataset holds 8 + 2 trajectories; the split-changing cases keep
# that total, so the arrays still match the manifest's byte count (10 + 0 is
# the split gen-data --n-val 0 writes, which train cannot validate on)
@pytest.mark.parametrize("mutate, message", [
    (_append("noisy.f64", b"\0\0\0"), "noisy.f64 holds 9763 bytes"),
    (_manifest(n_train=-3, n_val=13), "n_train"), (_manifest(n_train=9, n_val=True), "n_val"),
    (_manifest(dim="1"), "dim"), (_manifest(n_steps=60.0), "n_steps"),
    (_manifest(dt=float("nan")), "dt"), (_manifest(noise_std=-0.01), "noise_std"),
    (_manifest(format_version=True), "format_version"),
    (_poke("noisy.f64", 5, np.nan), "non-finite"),
    (_manifest(n_train=10, n_val=0), "dataset has no validation split"),
    (_manifest(system_params={"width_scale": float("nan")}), "system_params"),
    # half the trajectories at twice the width: the byte count still matches,
    # and the double well's field would leave columns 2 and 3 unwritten
    (_manifest(dim=2, n_train=4, n_val=1), "manifest dim is 2, but system 'double_well' has 1"),
], ids=["noisy-3-trailing-bytes", "negative-n-train", "boolean-n-val", "string-dim",
        "fractional-n-steps", "nan-dt", "negative-noise-std", "boolean-format-version",
        "noisy-nan", "no-validation-split", "nan-system-param", "dim-not-the-systems"])
def test_malformed_dataset_exits_one(dataset, tmp_path, capsys, mutate, message):
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    mutate(bad)
    assert run_train(bad, tmp_path / "out", "--epochs", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", [b"{bad", b"[1]", b"\xff{", b"[" * 100_000 + b"]" * 100_000],
                         ids=["bad-json", "list", "not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("kind", ["config", "tableau", "manifest", "checkpoint"])
def test_malformed_json_input_exits_one_naming_the_file(kind, body, dataset, checkpoint,
                                                        tmp_path, capsys):
    # every JSON file a user hands in goes through one reader: one that does
    # not hold a JSON object stops before any output, on one line naming it
    out = tmp_path / "out"
    if kind == "manifest":
        path = shutil.copytree(dataset, tmp_path / "ds") / "manifest.json"
        argv = ["train", "--data", str(path.parent), "--out-dir", str(out)]
    elif kind == "checkpoint":
        path = shutil.copytree(checkpoint.parent, tmp_path / "fit") / "model.json"
        argv = ["eval", "--checkpoint", str(path), "--system", "double_well",
                "--out-dir", str(out)]
    elif kind == "config":
        path = tmp_path / "cfg.json"
        argv = ["train", "--data", str(dataset), "--config", str(path), "--out-dir", str(out)]
    else:
        path = tmp_path / "tab.json"
        argv = ["check-tableau", "--file", str(path)]
    path.write_bytes(body)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert str(path) in captured.err
    assert not out.exists()


def test_numerical_failure_exits_two(dataset, tmp_path, capsys):
    # a one-iteration solver at an impossible tolerance converges nowhere,
    # so the first rollout raises NonFiniteError
    code = run_train(dataset, tmp_path / "out", "--epochs", "1",
                     "--fpi-tol", "1e-16", "--fpi-max-iters", "1")
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# each asks for more than the 128 TiB of x86-64 user address space, which
# every overcommit policy refuses at once, so no memory is touched
@pytest.mark.parametrize("argv", [
    ["eval", "--grid-points", "100000000"],
    ["integrate", "--n-steps", "100000000000000"],
    ["gen-data", "--n-train", "100000000000000"],
    ["train", "--hidden", "100000000000000"],
], ids=["eval-grid", "integrate-steps", "gen-data-trajectories", "train-width"])
def test_out_of_memory_exits_one_naming_the_allocation(argv, dataset, tmp_path, capsys):
    out = tmp_path / "out"
    data = ["--data", str(dataset)] if argv[0] == "train" else []
    assert main([*argv, *data, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2])
def test_train_stopped_in_epoch_k_leaves_k_rows_and_no_checkpoint(k, dataset, tmp_path,
                                                                 monkeypatch, capsys):
    # the fixture's 8 trajectories give 4 batches of 8 windows per epoch;
    # the first batch of epoch k fails, after epochs 0..k-1 have been written
    import symplearn.training as tr
    calls, loss_and_grad = [], tr.loss_and_grad

    def fails_in_epoch_k(*args):
        calls.append(1)
        if len(calls) > 4 * (k - 1):
            raise NonFiniteError("synthetic overflow")
        return loss_and_grad(*args)

    monkeypatch.setattr(tr, "loss_and_grad", fails_in_epoch_k)
    out = tmp_path / "out"
    assert run_train(dataset, out, "--epochs", "3") == 2
    assert capsys.readouterr().err == (f"numerical failure: synthetic overflow "
                                       f"at epoch {k} batch 0\n")
    assert [r["epoch"] for r in read_metrics(out)] == [str(e) for e in range(k)]
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


def test_metrics_csv_grows_by_one_row_per_epoch(dataset, tmp_path, monkeypatch):
    # after every epoch the file on disk is the head of the finished run's
    import symplearn.data
    snapshots, write_csv = [], symplearn.data.write_csv

    def recording(path, header, rows):
        write_csv(path, header, rows)
        snapshots.append(read_metrics(path.parent))

    monkeypatch.setattr(symplearn.data, "write_csv", recording)
    out = tmp_path / "out"
    assert run_train(dataset, out, "--epochs", "3") == 0

    def stripped(rows):  # wall clock is the one legitimately varying column
        return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]

    final = stripped(read_metrics(out))
    assert len(final) == len(snapshots) == 4
    # columns only ever append: readers of metrics.csv take train_loss by position
    assert list(read_metrics(out)[0]) == ["epoch", "train_loss", "val_loss", "lr",
                                          "wall_time_s", "val_excess"]
    for n, rows in enumerate(snapshots, 1):
        assert stripped(rows) == final[:n]


def test_gen_data_numerical_failure_leaves_no_directory(tmp_path, capsys):
    # at dt = 1.5 the first Gauss solve stops short of its tolerance; the
    # output directory is made only after the solve succeeds
    out = tmp_path / "X"
    assert main(["gen-data", "--system", "double_well", "--n-train", "4", "--n-val", "2",
                 "--dt", "1.5", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: step 0 did not converge")
    assert not out.exists()


def test_export_csv_of_a_missing_dataset_leaves_no_directory(tmp_path, capsys):
    # the output directory is made only once the dataset has loaded
    out = tmp_path / "x"
    assert main(["export-csv", "--data", str(tmp_path / "nowhere"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "nowhere") in err
    assert not out.exists()


# --------------------------------------------------------------------- threads

# Runs `python -m symplearn` with an import hook that prints, at the first
# import of numpy, the thread cap numpy would read.
_THREADS_AT_NUMPY_IMPORT = """
import os, runpy, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("threads at numpy import:", os.environ.get("OPENBLAS_NUM_THREADS"),
                  file=sys.stderr)
            sys.meta_path.remove(self)
        return None

sys.meta_path.insert(0, Spy())
sys.argv = ["symplearn", *sys.argv[1:]]
runpy.run_module("symplearn", run_name="__main__")
"""


def test_thread_env_is_set_before_numpy(tmp_path, package_env):
    # --threads from the parsed flag; without the flag no command caps the threads
    env = {k: v for k, v in package_env.items() if k not in _THREAD_ENV_VARS}
    for argv, threads in (
            (["gen-data", "--n-train", "2", "--n-val", "1", "--n-steps", "2",
              "--threads", "2"], "2"),
            (["gen-data", "--n-train", "2", "--n-val", "1", "--n-steps", "2"], "None")):
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_AT_NUMPY_IMPORT, *argv, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stderr == f"threads at numpy import: {threads}\n"


def test_bad_thread_count_exits_one(capsys):
    for count in ("0", "-1", "two", "1.5"):
        assert main(["train", "--threads", count]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_package_import_leaves_numpy_unloaded(package_env):
    # the --threads contract depends on this: the console script imports the
    # package before main() runs, so the package must not pull in numpy
    out = subprocess.run(
        [sys.executable, "-c",
         "import symplearn, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=package_env)
    assert out.stdout.strip() == "False"


def test_module_entry_point(package_env):
    out = subprocess.run([sys.executable, "-m", "symplearn", "--help"],
                         capture_output=True, text=True, env=package_env)
    assert out.returncode == 0
    assert "gen-data" in out.stdout
    # the installed script must target the same main (checked from the
    # metadata, since an uninstalled checkout has no script to run)
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"symplearn": "symplearn.cli:main"}


@pytest.mark.skipif(shutil.which("symplearn") is None,
                    reason="the symplearn console script is not on PATH; "
                           "install it with pip install --no-build-isolation -e .")
def test_console_script_is_wired():
    out = subprocess.run(["symplearn", "--help"], capture_output=True,
                         text=True)
    assert out.returncode == 0
    assert "gen-data" in out.stdout


# -------------------------------------------------------------------- gen-data

def test_gen_data_writes_dataset(dataset):
    names = sorted(p.name for p in dataset.iterdir())
    assert names == ["clean.f64", "manifest.json", "noisy.f64"]
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["n_train"] == 8 and manifest["n_val"] == 2


def test_gen_data_scale_presets(tmp_path, capsys):
    # the full-scale default is asserted on the constant (generating 24576
    # trajectories in a unit test helps nobody); the smoke preset runs
    assert FULL_SCALE == {"n_train": 16384, "n_val": 8192}
    assert SMOKE_SCALE == {"n_train": 1024, "n_val": 256}
    code = main(["gen-data", "--smoke", "--n-steps", "2",
                 "--out-dir", str(tmp_path / "smoke")])
    assert code == 0
    manifest = json.loads((tmp_path / "smoke" / "manifest.json").read_text())
    assert manifest["n_train"] == 1024 and manifest["n_val"] == 256
    capsys.readouterr()


def test_gen_data_system_params_reach_the_manifest(tmp_path, capsys):
    code = main(["gen-data", "--system", "coupled_ho", "--system-param",
                 "alpha=0.25", "--n-train", "2", "--n-val", "1",
                 "--n-steps", "4", "--out-dir", str(tmp_path / "c")])
    assert code == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["system_params"] == {"alpha": 0.25}
    capsys.readouterr()


# ----------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_metrics(dataset, checkpoint, capsys):
    out = checkpoint.parent
    assert (out / "model.bin").exists()
    assert (out / "metrics.csv").exists()
    rows = read_metrics(out)
    assert [r["epoch"] for r in rows] == ["0", "1"]
    net, theta, header = load_checkpoint(checkpoint)
    assert theta.shape == (net.n_params,)
    assert header["arch"] == [2, 8, 1]


def test_zero_epochs_checkpoint_is_the_initialization(dataset, tmp_path):
    out = tmp_path / "zero"
    assert run_train(dataset, out, "--epochs", "0") == 0
    net, theta, _ = load_checkpoint(out / "model.json")
    reference = HamiltonianNet(1, hidden=(8,)).init_params(3)
    assert np.array_equal(theta, reference)


def test_train_runs_are_reproducible(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_train(dataset, a, "--epochs", "1") == 0
    assert run_train(dataset, b, "--epochs", "1") == 0
    assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()

    def stripped(out):  # wall clock is the one legitimately varying column
        return [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in read_metrics(out)]

    assert stripped(a) == stripped(b)


def test_grad_modes_agree_through_the_cli(dataset, tmp_path):
    a, b = tmp_path / "adj", tmp_path / "bp"
    assert run_train(dataset, a, "--epochs", "1", "--grad-mode", "adjoint") == 0
    assert run_train(dataset, b, "--epochs", "1", "--grad-mode", "backprop") == 0
    la = float(read_metrics(a)[1]["train_loss"])
    lb = float(read_metrics(b)[1]["train_loss"])
    assert abs(la - lb) <= 1e-5 * abs(la)


# ---------------------------------------------------------------------- config

def test_config_file_sets_defaults_and_cli_wins(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "lr": 0.02, "window_steps": 2,
                               "stride": 10, "batch_size": 8,
                               "windows_per_traj": 4, "hidden": "8",
                               "val_batches": 1}))
    out1 = tmp_path / "from-config"
    code = main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--seed", "3", "--out-dir", str(out1)])
    assert code == 0
    assert [r["epoch"] for r in read_metrics(out1)] == ["0", "1", "2"]
    out2 = tmp_path / "cli-wins"
    code = main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--seed", "3", "--epochs", "1", "--out-dir", str(out2)])
    assert code == 0
    assert [r["epoch"] for r in read_metrics(out2)] == ["0", "1"]


def test_config_rejects_unknown_keys(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochz": 2}))
    code = main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "epochz" in capsys.readouterr().err


def test_config_rejects_thread_key_and_bad_json(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "command line" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 1
    cfg.write_text("[1, 2]")
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 1
    capsys.readouterr()


def test_config_value_error_names_the_key(tmp_path, monkeypatch, capsys):
    # a JSON true or object is no path: read as text, they would send the
    # output to ./True and "./{'a': [1]}"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for argv, config in (
            (["eval", "--out-dir", str(tmp_path / "o")], {"drift_steps": "x"}),
            (["gen-data", "--n-train", "2", "--n-val", "1"], {"out_dir": True}),
            (["integrate", "--n-steps", "2"], {"out_dir": {"a": [1]}})):
        cfg.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"config key {next(iter(config))!r}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def config_error(capsys, tmp_path, cmd, config, *flags):
    """Run cmd with config as its config file; the one error line it prints."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([cmd, "--config", str(cfg), *flags,
                 "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("cmd", ["train", "integrate"])
def test_config_with_retired_seed_key_exits_one(cmd, tmp_path, capsys):
    # the corrector's seed is fixed (integrate extrapolates it from the last
    # states), so the option that chose it is gone; old config files name it
    # and must fail loudly
    # (the key is spelled in parts so that a search for it finds no live use)
    key = "_".join(("guess", "source"))
    err = config_error(capsys, tmp_path, cmd, {key: "predictor"})
    assert f"config key {key!r}" in err


@pytest.mark.parametrize("cmd", ["train", "grad-check"])
def test_config_with_empty_hidden_exits_one(cmd, dataset, tmp_path, capsys):
    # a net with no hidden layer has a constant field, so neither command
    # takes one
    flags = ("--data", str(dataset)) if cmd == "train" else ()
    err = config_error(capsys, tmp_path, cmd, {"hidden": []}, *flags)
    assert err.startswith("error: hidden ")
    assert not (tmp_path / "o").exists()


def test_config_switches_take_only_json_booleans(tmp_path, capsys):
    for cmd, key, value in (("gen-data", "smoke", "false"), ("gen-data", "smoke", 1),
                            ("gen-data", "full", "yes")):
        err = config_error(capsys, tmp_path, cmd, {key: value})
        assert f"config key {key!r}" in err
    assert not (tmp_path / "o").exists()


def test_config_integers_reject_fractions(tmp_path, capsys):
    err = config_error(capsys, tmp_path, "eval", {"drift_steps": 2.7})
    assert "config key 'drift_steps'" in err and "2.7" in err
    err = config_error(capsys, tmp_path, "grad-check", {"hidden": [8.7]})
    assert "config key 'hidden'" in err and "8.7" in err
    err = config_error(capsys, tmp_path, "train", {"epochs": True}, "--data", "d")
    assert "config key 'epochs'" in err
    # flag strings keep rejecting fractions, and an integral JSON float is fine
    assert main(["grad-check", "--hidden", "8.7", "--out-dir", str(tmp_path / "o")]) == 1
    assert "--hidden" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drift_steps": 2.0, "grid_points": 3.0}))
    assert main(["eval", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "eval.json").read_text())["points_per_axis"] == 3


def test_numbers_reject_booleans_and_non_finite_values(tmp_path, capsys):
    # a JSON true is not the number 1, and NaN or an infinity is no step size
    for cmd, key, value, flags in (
            ("train", "lr", True, ("--data", "d")),
            ("eval", "drift_h", float("nan"), ()),
            ("integrate", "h", float("inf"), ("--system", "coupled_ho")),
            ("gen-data", "system_param", {"alpha": float("nan")}, ()),
            ("train", "lr", 10 ** 400, ("--data", "d"))):
        err = config_error(capsys, tmp_path, cmd, {key: value}, *flags)
        assert f"config key {key!r}" in err
    assert main(["eval", "--drift-h", "nan", "--out-dir", str(tmp_path / "o")]) == 1
    assert "--drift-h" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_lists_of_the_wrong_json_kind_exit_one(tmp_path, capsys):
    # a bare string is not a list of K=V strings (iterating it would read
    # its characters), and a bare number is not a list of numbers
    for cmd, key, value, expected in (
            ("eval", "system_param", "alpha=0.5", "a list of K=V strings or an object"),
            ("eval", "slice", "0=1", "a list of K=V strings or an object"),
            ("grad-check", "hidden", 16, "a list or a comma-separated string"),
            ("integrate", "y0", 0.5, "a list or a comma-separated string")):
        err = config_error(capsys, tmp_path, cmd, {key: value})
        assert f"config key {key!r}: expects {expected}, got {value!r}" in err
    err = config_error(capsys, tmp_path, "eval", {"system_param": [1]})
    assert "config key 'system_param': expects K=V, got 1" in err
    assert not (tmp_path / "o").exists()


# the same options as flags and as a config file (keys with underscores,
# lists and K=V pairs as JSON) must write the same files
PARITY = {
    "gen-data": (["--system", "coupled_ho", "--system-param", "alpha=0.25",
                  "--n-train", "3", "--n-val", "1", "--n-steps", "5",
                  "--dt", "0.002", "--noise-std", "0.02", "--seed", "4"],
                 {"system": "coupled_ho", "system_param": {"alpha": 0.25},
                  "n_train": 3, "n_val": 1, "n_steps": 5, "dt": 0.002,
                  "noise_std": 0.02, "seed": 4}),
    "eval": (["--system", "henon_heiles", "--slice", "0=0.1",
              "--grid-points", "5", "--drift-steps", "10", "--drift-h", "0.02",
              "--fpi-tol", "1e-11", "--seed", "2"],
             {"system": "henon_heiles", "slice": {"0": 0.1},
              "grid_points": 5, "drift_steps": 10, "drift_h": 0.02,
              "fpi_tol": 1e-11, "seed": 2}),
    "integrate": (["--system", "coupled_ho", "--system-param", "alpha=0.3",
                   "--method", "gauss2", "--h", "0.05", "--n-steps", "8",
                   "--y0", "0.3,0.2", "--fpi-max-iters", "40"],
                  {"system": "coupled_ho", "system_param": {"alpha": 0.3},
                   "method": "gauss2", "h": 0.05, "n_steps": 8, "y0": [0.3, 0.2],
                   "fpi_max_iters": 40}),
    "grad-check": (["--hidden", "3", "--window-steps", "2", "--batch-size", "2",
                    "--h", "0.02", "--fd-step", "1e-6", "--seed", "1"],
                   {"hidden": [3], "window_steps": 2, "batch_size": 2, "h": 0.02,
                    "fd_step": 1e-6, "seed": 1}),
}


@pytest.mark.parametrize("cmd", sorted(PARITY))
def test_config_file_matches_flags(cmd, tmp_path, capsys):
    flags, config = PARITY[cmd]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path / "b")}))
    assert main([cmd, *flags, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([cmd, "--config", str(cfg)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    capsys.readouterr()


# ------------------------------------------------------------------------ eval

def test_eval_oracle_is_exact(tmp_path, capsys):
    # without --checkpoint, eval scores the system's own H against itself
    out = tmp_path / "ev"
    code = main(["eval", "--system", "double_well",
                 "--grid-points", "9", "--drift-steps", "50",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["h_l1_mean"] == 0.0
    assert report["dyn_l2_mean"] == 0.0
    assert report["drift_model_h"] == report["drift_true_h"]
    assert report["n_points"] == 81
    assert report["source"] == "oracle:double_well"
    # the report must not embed wall-clock noise
    assert not any("time" in k or "wall" in k for k in report)
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(grid_lines) == 1 + 81
    assert "h_l1_mean=0" in capsys.readouterr().out


def test_eval_checkpoint_reports_finite_errors(checkpoint, tmp_path, capsys):
    out = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(checkpoint), "--system",
                 "double_well", "--grid-points", "9", "--drift-steps", "50",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["h_l1_mean"] > 0.0
    assert np.isfinite(report["drift_model_h"])
    assert report["source"] == str(checkpoint)
    capsys.readouterr()


def test_eval_dimension_mismatch_exits_one(checkpoint, tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(checkpoint), "--system",
                 "henon_heiles", "--out-dir", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"checkpoint {checkpoint} has dim 1, system henon_heiles has dim 2" in err
    assert not (tmp_path / "ev").exists()


def test_eval_oracle_flag_and_config_key_exit_one(tmp_path, capsys):
    # the truth is what eval scores without --checkpoint; the switch that
    # chose it is gone, and an old config file naming it must fail loudly
    assert main(["eval", "--oracle", "--out-dir", str(tmp_path / "ev")]) == 1
    assert "--oracle" in capsys.readouterr().err
    err = config_error(capsys, tmp_path, "eval", {"oracle": True})
    assert "config key 'oracle' is not an option of eval" in err
    assert not (tmp_path / "ev").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, name", [
    (["--system", "henon_heiles", "--slice", "0=1e308", "--grid-points", "2",
      "--drift-steps", "2"], "h_l1_mean nan"),
    (["--checkpoint", "{checkpoint}", "--system", "coupled_ho",
      "--system-param", "alpha=1e200"], "dyn_l2_mean inf"),
], ids=["oracle-overflow", "checkpoint-overflow"])
def test_eval_non_finite_grid_exits_two_and_writes_nothing(checkpoint, tmp_path, capsys,
                                                           argv, name):
    # the true system overflowing on the grid makes a summary non-finite,
    # which JSON cannot hold: eval fails before writing a report
    out = tmp_path / "ev"
    assert main(["eval", *(a.format(checkpoint=checkpoint) for a in argv),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"numerical failure: non-finite {name} on the evaluation grid\n"
    assert not out.exists()


def _bad_header(header):
    return [1, 2]


def _no_arch(header):
    del header["arch"]
    return header


def _escaping_data_file(header):
    header["data_file"] = "../dw/fit/model.bin"
    return header


def _absolute_data_file(header):
    header["data_file"] = str(pathlib.Path.cwd().anchor) + "model.bin"
    return header


def _fractional_arch(header):
    header["arch"][1] = 16.5
    return header


def _no_hidden_layer(header):
    header["arch"] = [2, 1]
    header["param_count"] = 3
    return header


@pytest.mark.parametrize("corrupt, needle", [
    (_bad_header, "JSON object"),
    (_no_arch, "missing ['arch']"),
    (_escaping_data_file, "data_file"),
    (_absolute_data_file, "data_file"),
    (_fractional_arch, "checkpoint arch"),
    (_no_hidden_layer, "hidden"),
    (None, "non-finite"),
])
def test_eval_malformed_checkpoint_exits_one_with_one_line(checkpoint, tmp_path, capsys,
                                                           corrupt, needle):
    # a header of the wrong shape, a payload path leaving the checkpoint's
    # directory and a NaN weight all stop at load, naming what is wrong
    src = tmp_path / "src"
    shutil.copytree(checkpoint.parent, src)
    header = json.loads((src / "model.json").read_text())
    if corrupt is None:
        theta = np.fromfile(src / header["data_file"], dtype="<f8")
        theta[3] = np.nan
        theta.tofile(src / header["data_file"])
    else:
        (src / "model.json").write_text(json.dumps(corrupt(header)))
    # a sibling checkpoint the escaping data_file would otherwise reach
    shutil.copytree(checkpoint.parent, tmp_path / "dw" / "fit")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(src / "model.json"), "--system",
                 "double_well", "--grid-points", "5", "--drift-steps", "10",
                 "--out-dir", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and needle in err


def test_eval_reruns_are_identical(checkpoint, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["eval", "--checkpoint", str(checkpoint), "--system",
                     "double_well", "--grid-points", "5", "--drift-steps",
                     "20", "--seed", "11", "--out-dir", str(out)]) == 0
    assert (a / "eval.json").read_bytes() == (b / "eval.json").read_bytes()
    assert (a / "grid.csv").read_bytes() == (b / "grid.csv").read_bytes()


@pytest.mark.parametrize("method", [None, "gauss2"])
def test_eval_and_integrate_write_the_bytes_of_dynamics(checkpoint, tmp_path, monkeypatch,
                                                        capsys, method):
    # eval's grid and drift rollouts and integrate --checkpoint run on one
    # prepared field closure per command; the broadcasting reference field
    # in its place must write the same files byte for byte
    extra = ["--method", method] if method else []

    def run(out):
        assert main(["eval", "--checkpoint", str(checkpoint), "--system", "double_well",
                     "--grid-points", "5", "--drift-steps", "30",
                     "--out-dir", str(out / "eval")]) == 0
        assert main(["integrate", "--checkpoint", str(checkpoint), "--y0", "0.5,-0.3",
                     "--h", "0.05", "--n-steps", "30", *extra,
                     "--out-dir", str(out / "integrate")]) == 0

    run(tmp_path / "field")
    monkeypatch.setattr(HamiltonianNet, "field", lambda net, theta, tapes=None:
                        lambda y: broadcasting_field(theta, net.arch, y))
    run(tmp_path / "dynamics")
    capsys.readouterr()
    for name in ("eval/eval.json", "eval/grid.csv", "integrate/trajectory.csv"):
        assert ((tmp_path / "field" / name).read_bytes()
                == (tmp_path / "dynamics" / name).read_bytes())


# ------------------------------------------------------------------- integrate

def test_integrate_system_writes_trajectory(tmp_path, capsys):
    # row k is the state at t = k * h, backward in time for a negative h
    for h in (0.05, -0.03):
        out = tmp_path / str(h)
        code = main(["integrate", "--system", "coupled_ho", "--h", str(h),
                     "--n-steps", "20", "--y0", "0.3,0.2", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,x0,x1"
        assert len(lines) == 22
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in rows] == [[str(k), repr(k * h)] for k in range(21)]
        assert float(rows[0][2]) == 0.3 and float(rows[0][3]) == 0.2
        assert "energy drift" in capsys.readouterr().out


def test_integrate_checkpoint_starts_where_the_system_does(checkpoint, tmp_path, capsys):
    # without --y0 both sources start from the system's box on one seeded
    # stream, so a model's rollout and the truth's begin at the same state
    starts = []
    for source in ([], ["--checkpoint", str(checkpoint)]):
        out = tmp_path / str(len(starts))
        assert main(["integrate", *source, "--h", "0.05", "--n-steps", "5", "--seed", "9",
                     "--out-dir", str(out)]) == 0
        starts.append((out / "trajectory.csv").read_text().splitlines()[1].split(",")[2:])
    assert starts[0] == starts[1]
    assert f"integrated checkpoint:{checkpoint} " in capsys.readouterr().out


@pytest.mark.parametrize("argv, step", [
    (["integrate", "--system", "double_well", "--h", "0.8", "--n-steps", "5",
      "--y0", "1.0,1.0"], 0),
    (["eval", "--system", "double_well", "--drift-h", "0.8",
      "--drift-steps", "5", "--grid-points", "3", "--seed", "0"], 4),
], ids=["integrate", "eval"])
def test_integrate_unconverged_step_exits_two(tmp_path, capsys, argv, step):
    # at h = 0.8 a fixed-point solve of the rollout stops at the default 50
    # sweeps short of its tolerance: one line naming the first such step,
    # and nothing written (no trajectory.csv, no eval.json)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: step {step} did not converge in 50 sweeps "
                          "(last residual ") and err.count("\n") == 1, err
    assert not out.exists()


def test_integrate_argument_validation(checkpoint, tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["integrate", "--checkpoint", "x", "--out-dir", out]) == 1  # no such file
    assert main(["integrate", "--system", "coupled_ho", "--y0", "1,2,3",
                 "--out-dir", out]) == 1               # wrong width
    capsys.readouterr()
    # the model must live in the named system's phase space
    assert main(["integrate", "--checkpoint", str(checkpoint), "--system", "henon_heiles",
                 "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"checkpoint {checkpoint} has dim 1, system henon_heiles has dim 2" in err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("seed", range(1, 8))
def test_henon_heiles_starts_below_the_energy_cap(seed, tmp_path, monkeypatch, capsys):
    # eval's drift runs and integrate draw their start as datasets do, below
    # the cap, where the rollout stays bounded (a start drawn from the whole
    # box blew up at every one of these seeds)
    from symplearn import evaluation
    from symplearn.systems import get_system
    hh = get_system("henon_heiles")
    starts = []
    drift = evaluation.energy_drift

    def spy(h_ref, states):
        starts.append(states[0])
        return drift(h_ref, states)

    monkeypatch.setattr(evaluation, "energy_drift", spy)
    argv = ["--system", "henon_heiles", "--seed", str(seed)]
    assert main(["eval", "--grid-points", "5", *argv,
                 "--out-dir", str(tmp_path / "eval")]) == 0
    assert main(["integrate", *argv, "--out-dir", str(tmp_path / "integrate")]) == 0
    row = (tmp_path / "integrate" / "trajectory.csv").read_text().splitlines()[1]
    assert [float(c) for c in row.split(",")[2:]] == starts[-1].tolist()
    assert len(starts) == 3     # eval's model and true H, then integrate's
    assert all(hh.hamiltonian(y0) < hh.ic_energy_cap for y0 in starts)
    capsys.readouterr()


@pytest.mark.parametrize("system,param", [("coupled_ho", "alpha=1e200"),
                                          ("double_well", "width_scale=1e200"),
                                          ("coupled_ho", "alpha=1e5")])
def test_overflowing_system_param_fails_with_one_line(system, param, tmp_path, package_env):
    # the overflow is reported by the solver's finiteness check or, where the
    # states stay finite and only their energies overflow (alpha=1e5),
    # by energy_drift's, with no NumPy warning lines before it and no
    # eval.json or trajectory.csv; a child process, because pytest would
    # catch the warnings before they reach stderr
    for argv, written in ((["eval", "--grid-points", "3", "--drift-steps", "2"],
                           "eval.json"),
                          (["integrate", "--n-steps", "2"], "trajectory.csv")):
        out = subprocess.run(
            [sys.executable, "-m", "symplearn", *argv, "--system", system,
             "--system-param", param, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=package_env)
        assert out.returncode == 2
        assert out.stderr.startswith("numerical failure: ") and out.stderr.count("\n") == 1, \
            out.stderr
        assert not (tmp_path / written).exists()


# --------------------------------------------------------------- check-tableau

def test_check_tableau_verdicts(capsys):
    assert main(["check-tableau", "--method", "implicit_midpoint"]) == 0
    assert "symplectic" in capsys.readouterr().out
    assert main(["check-tableau", "--method", "explicit_euler"]) == 0
    out = capsys.readouterr().out
    assert "NOT symplectic" in out
    assert "1.000e+00" in out  # the classic method misses by exactly one
    assert main(["check-tableau", "--method", "gauss2", "--tol", "0"]) == 0
    assert "gauss2: symplectic (tol 0.0)" in capsys.readouterr().out
    assert main(["check-tableau", "--method", "no_such_method"]) == 1
    capsys.readouterr()


def test_check_tableau_from_file(tmp_path, capsys):
    # midpoint with the position weight corrupted to 0.9: the weight
    # mismatch |b_q - b_p| = 0.1 dominates the violation
    tab = {"a_q": [[0.5]], "b_q": [0.9], "a_p": [[0.5]], "b_p": [1.0]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(tab))
    assert main(["check-tableau", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NOT symplectic" in out
    assert "1.000e-01" in out
    assert main(["check-tableau", "--method", "implicit_midpoint",
                 "--file", str(path)]) == 1  # exactly one source
    path.write_text(json.dumps({"a_q": [[0.5]]}))
    assert main(["check-tableau", "--file", str(path)]) == 1  # missing keys
    capsys.readouterr()


@pytest.mark.parametrize("body, message", [
    ([1, 2], "JSON object"),
    ({"a_q": [[0.5, 0.1]], "b_q": [1.0], "a_p": [[0.5]], "b_p": [1]}, "shape"),
    ({"name": 5, "a_q": [[0.5]], "b_q": [1], "a_p": [[0.5]], "b_p": [1]}, "name"),
    ({"a_q": [[0.5]], "b_q": [True], "a_p": [[0.5]], "b_p": [1]}, "b_q"),
    ({"name": ["x"], "a_q": [[0.5]], "b_q": [True], "a_p": [[0.5]], "b_p": [1]}, "name"),
    ({"a_q": [[0.5]], "b_q": [1], "a_p": [[float("inf")]], "b_p": [1]}, "non-finite coefficient"),
], ids=["list", "non-square", "number-name", "boolean-weight", "list-name-boolean-weight",
        "infinite-coefficient"])
def test_check_tableau_rejects_a_malformed_file(tmp_path, capsys, body, message):
    # NumPy would read a boolean as 0 or 1, and a name that is not a string
    # would be printed as one: both are errors naming the file and the field
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(body))
    assert main(["check-tableau", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err and str(path) in captured.err


# ------------------------------------------------------------------ grad-check

def test_grad_check_reports_and_dumps(tmp_path, capsys):
    out = tmp_path / "gc"
    code = main(["grad-check", "--hidden", "4", "--window-steps", "2",
                 "--batch-size", "2", "--out-dir", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "adjoint vs finite differences" in text
    lines = (out / "grad_check.csv").read_text().strip().splitlines()
    assert lines[0] == "param_index,adjoint,backprop,finite_difference"
    # coupled_ho states have width 2: a (4,) hidden layer means
    # 2*4+4 + 4*1+1 = 17 parameters
    assert len(lines) == 1 + 17


# ------------------------------------------------------------------ export-csv

def test_export_csv_roundtrip(dataset, tmp_path, capsys):
    target = tmp_path / "dump" / "clean.csv"
    code = main(["export-csv", "--data", str(dataset), "--which", "clean",
                 "--max-traj", "2", "--out-dir", str(target.parent)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "traj,step,t,q0,p0"
    assert len(lines) == 1 + 2 * 61
    assert main(["export-csv", "--out-dir", str(tmp_path / "e")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("max_traj", ["-1", "0"])
def test_export_csv_rejects_max_traj_below_one(dataset, tmp_path, capsys, max_traj):
    out = tmp_path / "e"
    code = main(["export-csv", "--data", str(dataset), "--max-traj", max_traj,
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_traj ") and len(err.splitlines()) == 1
    assert not out.exists()
