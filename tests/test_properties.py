"""Property tests for the file and config loaders and the CLI's exit-code
contract: whatever a manifest, checkpoint header, checkpoint binary,
training config, system parameter or tableau file holds, loading it either
succeeds with valid, finite values or raises ValueError, and through the CLI
a malformed input exits 1 with one line, never with a traceback or a silent
NaN."""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symplearn.cli import main
from symplearn.data import DatasetManifest, generate_dataset
from symplearn.integrators import FpiConfig
from symplearn.model import HamiltonianNet, load_checkpoint, save_checkpoint
from symplearn.training import TrainConfig

# derandomized, so the suite draws the same examples on every run
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# any JSON document, NaN and the infinities included (Python's json reads them)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6,
)


def mutations(base):
    """One edit of a JSON object: a field set to any JSON value, a field
    dropped, an unknown field added, or the whole document replaced."""
    keys = sorted(base)
    return st.one_of(
        st.tuples(st.just("set"), st.sampled_from(keys), JSON),
        st.tuples(st.just("drop"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("add"), st.text(min_size=1, max_size=6), JSON),
        st.tuples(st.just("replace"), st.none(), JSON),
    )


def mutate(base, edit):
    kind, key, value = edit
    if kind == "replace":
        return value
    doc = dict(base)
    if kind == "drop":
        del doc[key]
    else:
        doc[key] = value
    return doc


@contextlib.contextmanager
def temp_dir():
    with tempfile.TemporaryDirectory() as name:
        yield pathlib.Path(name)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("prop") / "ds"
    manifest, _, _ = generate_dataset("double_well", root, seed=3, n_train=2, n_val=1,
                                      n_steps=4)
    return root, json.loads(manifest.to_json())


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("prop-ckpt")
    net = HamiltonianNet(1, hidden=(3,))
    header_path, bin_path = save_checkpoint(root / "model.json", net, net.init_params(4),
                                            seed=4)
    return header_path, json.loads(header_path.read_text()), bin_path.read_bytes()


# ------------------------------------------------------------------ manifests


def check_manifest(manifest):
    for name, low in (("dim", 1), ("seed", 0), ("n_train", 1), ("n_val", 0), ("n_steps", 1)):
        value = getattr(manifest, name)
        assert isinstance(value, int) and not isinstance(value, bool) and value >= low
    assert math.isfinite(manifest.dt) and manifest.dt > 0
    assert math.isfinite(manifest.noise_std) and manifest.noise_std >= 0
    assert all(math.isfinite(v) for v in manifest.system_params.values())
    assert DatasetManifest.from_json(manifest.to_json()) == manifest


@SETTINGS
@given(data=st.data())
def test_manifest_loads_valid_or_raises_value_error(dataset, data):
    _, base = dataset
    text = json.dumps(mutate(base, data.draw(mutations(base))))
    try:
        manifest = DatasetManifest.from_json(text)
    except ValueError:
        return
    check_manifest(manifest)


@SETTINGS
@given(text=st.text(max_size=40))
def test_manifest_text_loads_valid_or_raises_value_error(text):
    try:
        manifest = DatasetManifest.from_json(text)
    except ValueError:
        return
    check_manifest(manifest)


@SETTINGS
@given(data=st.data())
def test_cli_on_a_malformed_manifest_exits_one_with_one_line(dataset, data):
    root, base = dataset
    doc = mutate(base, data.draw(mutations(base)))
    with temp_dir() as tmp:
        copy = shutil.copytree(root, tmp / "ds")
        (copy / "manifest.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["export-csv", "--data", copy, "--max-traj", 1,
                                "--out-dir", tmp / "out"])
        if code == 0:
            check_manifest(DatasetManifest.from_json(json.dumps(doc)))
            assert err == ""
        else:
            assert_one_line_error(code, err)


# ---------------------------------------------------------------- checkpoints

# a checkpoint binary: the saved one cut short or extended, or one value
# replaced by anything a float64 can hold
BINARY_EDITS = st.one_of(
    st.tuples(st.just("length"), st.integers(-40, 40)),
    st.tuples(st.just("value"), st.floats(allow_nan=True, allow_infinity=True)),
)


def edit_binary(raw, edit):
    kind, arg = edit
    if kind == "length":
        return raw[:max(len(raw) + arg, 0)] if arg < 0 else raw + bytes(arg)
    theta = np.frombuffer(raw, dtype="<f8").copy()
    theta[len(theta) // 2] = arg
    return theta.tobytes()


def write_checkpoint(tmp, header, raw):
    (tmp / "model.bin").write_bytes(raw)
    path = tmp / "model.json"
    path.write_text(json.dumps(header))
    return path


@SETTINGS
@given(data=st.data())
def test_checkpoint_loads_valid_or_raises_value_error(checkpoint, data):
    _, base, raw = checkpoint
    header = mutate(base, data.draw(mutations(base)))
    raw = edit_binary(raw, data.draw(BINARY_EDITS))
    with temp_dir() as tmp:
        path = write_checkpoint(tmp, header, raw)
        try:
            net, theta, loaded = load_checkpoint(path)
        except (ValueError, FileNotFoundError):
            return
    assert loaded == header
    assert theta.shape == (net.n_params,) and np.all(np.isfinite(theta))
    assert list(net.arch) == header["arch"]


@SETTINGS
@given(data=st.data())
def test_cli_on_a_malformed_checkpoint_exits_one_with_one_line(checkpoint, data):
    _, base, raw = checkpoint
    header = mutate(base, data.draw(mutations(base)))
    raw = edit_binary(raw, data.draw(BINARY_EDITS))
    with temp_dir() as tmp:
        path = write_checkpoint(tmp, header, raw)
        code, _, err = run_cli(["integrate", "--checkpoint", path, "--y0", "0.3,-0.2",
                                "--n-steps", 2, "--out-dir", tmp / "out"])
        if code == 0:
            load_checkpoint(path)
            assert err == ""
        else:
            assert_one_line_error(code, err)


# -------------------------------------------------------------------- configs

FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
# JSON values, plus the tuple and FpiConfig kinds a library caller hands in
CONFIG_VALUES = st.one_of(
    JSON,
    st.tuples(st.integers(-2, 40)),
    st.builds(FpiConfig, tol=st.floats(1e-14, 1e-3), max_iters=st.integers(1, 60)),
)


def check_config(config):
    for name, low in (("window_steps", 1), ("stride", 1), ("batch_size", 1), ("epochs", 0),
                      ("windows_per_traj", 1), ("seed", 0), ("val_batches", 1)):
        value = getattr(config, name)
        assert isinstance(value, int) and not isinstance(value, bool) and value >= low
    assert config.grad_mode in ("adjoint", "backprop")
    assert isinstance(config.lr, (int, float)) and not isinstance(config.lr, bool)
    assert math.isfinite(config.lr) and config.lr > 0
    assert isinstance(config.fpi, FpiConfig)
    assert all(isinstance(w, int) and not isinstance(w, bool) and w >= 1
               for w in config.hidden)


@SETTINGS
@given(fields=st.dictionaries(st.sampled_from(FIELDS), CONFIG_VALUES, max_size=3))
def test_train_config_is_valid_or_raises_value_error(fields):
    try:
        config = TrainConfig(**fields)
    except ValueError:
        return
    check_config(config)


class _Accepted(Exception):
    """Raised in place of training once the CLI has built a config."""


TRAIN_BASE = {"window_steps": 2, "stride": 1, "batch_size": 4, "epochs": 1, "lr": 0.01,
              "hidden": [3], "grad_mode": "adjoint", "fpi_tol": 1e-10, "val_batches": 1}


def train_cli(root, config):
    """The TrainConfig `train --config` builds from config, with training
    stubbed out, or the (exit code, stderr) it stopped with."""
    seen = []

    def stub(manifest, noisy, config):
        seen.append(config)
        raise _Accepted

    with temp_dir() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr("symplearn.training.train", stub)
        cfg_path = tmp / "train.json"
        cfg_path.write_text(json.dumps(config))
        try:
            code, _, err = run_cli(["train", "--data", root, "--config", cfg_path,
                                    "--out-dir", tmp / "out"])
        except _Accepted:
            return seen[0]
    return code, err


def test_cli_builds_the_base_train_config(dataset):
    config = train_cli(dataset[0], TRAIN_BASE)
    assert isinstance(config, TrainConfig)
    assert config.hidden == (3,) and config.fpi == FpiConfig(tol=1e-10)


@SETTINGS
@given(data=st.data())
def test_cli_on_a_malformed_train_config_exits_one_with_one_line(dataset, data):
    # a valid training config file with one key set to any JSON value
    key = data.draw(st.sampled_from(sorted(TRAIN_BASE) + [
        "fpi_max_iters", "seed", "windows_per_traj"]))
    value = data.draw(JSON)
    result = train_cli(dataset[0], {**TRAIN_BASE, key: value})
    if isinstance(result, TrainConfig):
        check_config(result)
        assert not isinstance(value, bool)     # no training option is a switch
    else:
        assert_one_line_error(*result)


# --------------------------------------------------------- system parameters


def _finite(text):
    try:
        return math.isfinite(float(text))
    except (ValueError, OverflowError):
        return False


@SETTINGS
@given(key=st.sampled_from(["alpha", "width_scale"]) | st.text(max_size=8),
       value=st.floats().map(repr) | st.text(max_size=6))
def test_cli_on_a_drawn_system_param_exits_one_with_one_line(key, value):
    item = f"{key}={value}"
    with temp_dir() as tmp:
        code, _, err = run_cli(["eval", "--oracle", "--system", "coupled_ho",
                                f"--system-param={item}", "--grid-points", 3,
                                "--drift-steps", 2, "--out-dir", tmp / "out"])
    name, text = item.split("=", 1)
    if name.strip() == "alpha" and _finite(text):
        # a well-formed value: it scores, or a huge one blows the drift
        # rollout up, which is a numerical failure and not a usage error
        assert code in (0, 2)
        if code == 2:
            assert err.splitlines()[-1].startswith("numerical failure: ")
    else:
        assert_one_line_error(code, err)


# --------------------------------------------------------------- tableau files

TABLEAU_BASE = {"name": "midpoint", "a_q": [[0.5]], "b_q": [1.0], "a_p": [[0.5]],
                "b_p": [1.0]}


@SETTINGS
@given(data=st.data())
def test_cli_on_a_malformed_tableau_file_exits_one_with_one_line(data):
    doc = mutate(TABLEAU_BASE, data.draw(mutations(TABLEAU_BASE)))
    with temp_dir() as tmp:
        path = tmp / "tableau.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["check-tableau", "--file", path,
                                  "--out-dir", tmp / "out"])
    if code == 0:
        assert "symplectic" in out.splitlines()[0]
        assert err == ""
    else:
        assert_one_line_error(code, err)
