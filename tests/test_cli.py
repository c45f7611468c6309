"""Command-line interface: exit codes, option precedence, and the file
contracts of each subcommand.  Commands run in-process through cli.main so
exit codes and output are observable directly; the module entry point, the
installed console script and the import-order guarantee get one subprocess
check each."""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from symplearn import cli
from symplearn.cli import _apply_thread_env, _THREAD_ENV_VARS, main
from symplearn.data import FULL_SCALE, SMOKE_SCALE
from symplearn.model import HamiltonianNet, load_checkpoint


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
    assert main(["train"]) == 1               # --data is required
    out = ["--out-dir", str(tmp_path / "o")]
    assert main(["gen-data", "--system-param", "alpha", *out]) == 1
    assert main(["eval", "--oracle", "--slice", "x=1", *out]) == 1
    assert main(["integrate", "--system", "coupled_ho", "--y0", "a,b", *out]) == 1
    assert main(["train", "--hidden", "a,b", *out]) == 1
    capsys.readouterr()


def test_unknown_system_exits_one(tmp_path, capsys):
    code = main(["gen-data", "--system", "lorenz", "--n-train", "1",
                 "--n-val", "1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "unknown system" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["gen-data", "--smoke"], ["eval", "--oracle"]])
def test_unknown_system_param_exits_one(tmp_path, capsys, cmd):
    code = main([*cmd, "--system-param", "foo=1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "'double_well'" in err and "['foo']" in err and "['width_scale']" in err


@pytest.mark.parametrize("argv, name", [
    (["grad-check", "--fd-step", "0"], "fd_step"),
    (["profile", "--repeats", "0", "--window-steps", "2", "--batch-size", "4"], "repeats"),
    (["eval", "--oracle", "--grid-points", "0"], "points_per_axis"),
], ids=["fd-step", "repeats", "grid-points"])
def test_numeric_values_below_their_range_exit_one(tmp_path, capsys, argv, name):
    assert main([*argv, "--out-dir", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ") and len(err.splitlines()) == 1


def test_train_options_are_the_train_config_fields():
    # _train_config forwards only TrainConfig fields, so a train option
    # that is not one would be parsed and silently ignored
    from symplearn.training import TrainConfig
    _, specs = cli._build_parser()
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(specs["train"]) == (fields - {"fpi"}) | {"data", "out_dir", "fpi_tol",
                                                          "fpi_max_iters"}


def test_missing_dataset_names_the_path(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nowhere"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert str(tmp_path / "nowhere") in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"), ("--windows-per-traj", "0"), ("--val-batches", "0"),
    ("--epochs", "-1"), ("--lr", "nan"), ("--no-such-flag", "1"),
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
# that total, so the arrays still match the manifest's byte count
@pytest.mark.parametrize("mutate", [
    _append("noisy.f64", b"\0\0\0"), _manifest(n_train=-3, n_val=13),
    _manifest(n_train=9, n_val=True), _manifest(dim="1"), _manifest(n_steps=60.0),
    _manifest(dt=float("nan")), _manifest(noise_std=-0.01),
    _manifest(format_version=True), _poke("noisy.f64", 5, np.nan),
], ids=["noisy-3-trailing-bytes", "negative-n-train", "boolean-n-val", "string-dim",
        "fractional-n-steps", "nan-dt", "negative-noise-std", "boolean-format-version",
        "noisy-nan"])
def test_malformed_dataset_exits_one(dataset, tmp_path, capsys, mutate):
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    mutate(bad)
    assert run_train(bad, tmp_path / "out", "--epochs", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_two(dataset, tmp_path, capsys):
    # a one-iteration solver at an impossible tolerance converges nowhere,
    # which the training loop reports as a numerical abort
    code = run_train(dataset, tmp_path / "out", "--epochs", "1",
                     "--fpi-tol", "1e-16", "--fpi-max-iters", "1")
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# --------------------------------------------------------------------- threads

def test_thread_env_is_set_before_numpy(monkeypatch):
    for var in _THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    _apply_thread_env(["train", "--threads", "3"])
    assert all(os.environ[v] == "3" for v in _THREAD_ENV_VARS)
    _apply_thread_env(["profile"])  # profiling defaults to a single thread
    assert all(os.environ[v] == "1" for v in _THREAD_ENV_VARS)


def test_bad_thread_count_exits_one(capsys):
    assert main(["train", "--threads", "0"]) == 1
    assert main(["train", "--threads", "two"]) == 1
    capsys.readouterr()


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
    assert main(["gen-data", "--smoke", "--full",
                 "--out-dir", str(tmp_path / "b")]) == 1
    assert "exclusive" in capsys.readouterr().err


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


def test_config_value_error_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drift_steps": "x"}))
    assert main(["eval", "--oracle", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "drift_steps" in err


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


def test_config_switches_take_only_json_booleans(tmp_path, capsys):
    for cmd, key, value in (("eval", "oracle", "false"), ("gen-data", "smoke", 1),
                            ("gen-data", "full", "yes")):
        err = config_error(capsys, tmp_path, cmd, {key: value})
        assert f"config key {key!r}" in err
    assert not (tmp_path / "o").exists()


def test_config_integers_reject_fractions(tmp_path, capsys):
    err = config_error(capsys, tmp_path, "eval", {"drift_steps": 2.7}, "--oracle")
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
    assert main(["eval", "--oracle", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "eval.json").read_text())["points_per_axis"] == 3


def test_numbers_reject_booleans_and_non_finite_values(tmp_path, capsys):
    # a JSON true is not the number 1, and NaN or an infinity is no step size
    for cmd, key, value, flags in (
            ("train", "lr", True, ("--data", "d")),
            ("eval", "drift_h", float("nan"), ("--oracle",)),
            ("integrate", "h", float("inf"), ("--system", "coupled_ho")),
            ("gen-data", "system_param", {"alpha": float("nan")}, ()),
            ("train", "lr", 10 ** 400, ("--data", "d"))):
        err = config_error(capsys, tmp_path, cmd, {key: value}, *flags)
        assert f"config key {key!r}" in err
    assert main(["eval", "--oracle", "--drift-h", "nan", "--out-dir", str(tmp_path / "o")]) == 1
    assert "--drift-h" in capsys.readouterr().err
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
    "eval": (["--oracle", "--system", "henon_heiles", "--slice", "0=0.1",
              "--grid-points", "5", "--drift-steps", "10", "--drift-h", "0.02",
              "--fpi-tol", "1e-11", "--seed", "2"],
             {"oracle": True, "system": "henon_heiles", "slice": {"0": 0.1},
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
    out = tmp_path / "ev"
    code = main(["eval", "--oracle", "--system", "double_well",
                 "--grid-points", "9", "--drift-steps", "50",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["h_l1_mean"] == 0.0
    assert report["dyn_l2_mean"] == 0.0
    assert report["n_points"] == 81
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
    assert "dim" in capsys.readouterr().err


def test_eval_without_checkpoint_or_oracle_exits_one(tmp_path, capsys):
    assert main(["eval", "--out-dir", str(tmp_path / "ev")]) == 1
    capsys.readouterr()


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


@pytest.mark.parametrize("corrupt, needle", [
    (_bad_header, "JSON object"),
    (_no_arch, "missing ['arch']"),
    (_escaping_data_file, "data_file"),
    (_absolute_data_file, "data_file"),
    (_fractional_arch, "checkpoint arch"),
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
    # prepared field closure per command; integrating net.dynamics instead
    # must write the same files byte for byte
    extra = ["--method", method] if method else []

    def run(out):
        assert main(["eval", "--checkpoint", str(checkpoint), "--system", "double_well",
                     "--grid-points", "5", "--drift-steps", "30",
                     "--out-dir", str(out / "eval")]) == 0
        assert main(["integrate", "--checkpoint", str(checkpoint), "--y0", "0.5,-0.3",
                     "--h", "0.05", "--n-steps", "30", *extra,
                     "--out-dir", str(out / "integrate")]) == 0

    run(tmp_path / "field")
    monkeypatch.setattr(HamiltonianNet, "field",
                        lambda net, theta, tapes=None: lambda y: net.dynamics(theta, y))
    run(tmp_path / "dynamics")
    capsys.readouterr()
    for name in ("eval/eval.json", "eval/grid.csv", "integrate/trajectory.csv"):
        assert ((tmp_path / "field" / name).read_bytes()
                == (tmp_path / "dynamics" / name).read_bytes())


# ------------------------------------------------------------------- integrate

def test_integrate_system_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj"
    code = main(["integrate", "--system", "coupled_ho", "--h", "0.05",
                 "--n-steps", "20", "--y0", "0.3,0.2", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "step,t,x0,x1"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[2]) == 0.3 and float(first[3]) == 0.2
    assert "energy drift" in capsys.readouterr().out


def test_integrate_checkpoint_needs_y0(checkpoint, tmp_path, capsys):
    out = tmp_path / "traj"
    assert main(["integrate", "--checkpoint", str(checkpoint),
                 "--out-dir", str(out)]) == 1
    code = main(["integrate", "--checkpoint", str(checkpoint),
                 "--y0", "0.5,0.0", "--h", "0.05", "--n-steps", "5",
                 "--out-dir", str(out)])
    assert code == 0
    capsys.readouterr()


def test_integrate_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["integrate", "--out-dir", out]) == 1  # neither source
    assert main(["integrate", "--system", "coupled_ho", "--checkpoint", "x",
                 "--out-dir", out]) == 1               # both sources
    assert main(["integrate", "--system", "coupled_ho", "--y0", "1,2,3",
                 "--out-dir", out]) == 1               # wrong width
    capsys.readouterr()


# --------------------------------------------------------------- check-tableau

def test_check_tableau_verdicts(capsys):
    assert main(["check-tableau", "--method", "implicit_midpoint"]) == 0
    assert "symplectic" in capsys.readouterr().out
    assert main(["check-tableau", "--method", "explicit_euler"]) == 0
    out = capsys.readouterr().out
    assert "NOT symplectic" in out
    assert "1.000e+00" in out  # the classic method misses by exactly one
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
], ids=["list", "non-square"])
def test_check_tableau_rejects_a_malformed_file(tmp_path, capsys, body, message):
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(body))
    assert main(["check-tableau", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err


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
    target = tmp_path / "dump" / "rows.csv"
    code = main(["export-csv", "--data", str(dataset), "--which", "clean",
                 "--max-traj", "2", "--out", str(target)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "traj,step,t,q0,p0"
    assert len(lines) == 1 + 2 * 61
    assert main(["export-csv", "--out-dir", str(tmp_path / "e")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("max_traj", ["-1", "0"])
def test_export_csv_rejects_max_traj_below_one(dataset, tmp_path, capsys, max_traj):
    target = tmp_path / "rows.csv"
    code = main(["export-csv", "--data", str(dataset), "--max-traj", max_traj,
                 "--out", str(target)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not target.exists()
