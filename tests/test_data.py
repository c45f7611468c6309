"""Dataset generation, storage format, and window sampling."""

import dataclasses
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from symplearn import data
from symplearn.data import (CLEAN_NAME, DatasetManifest, MANIFEST_FORMAT_VERSION,
                            MANIFEST_NAME, NOISY_NAME, export_csv, generate_dataset,
                            load_dataset, sample_initial_conditions,
                            sample_windows, split_dataset)
from symplearn.integrators import integrate
from symplearn.systems import get_system


def small_dataset(tmp_path, seed=5, n_train=8, n_val=4, n_steps=40,
                  system="double_well", **kw):
    return generate_dataset(system, tmp_path / "ds", seed=seed,
                            n_train=n_train, n_val=n_val, n_steps=n_steps,
                            **kw)


def test_manifest_roundtrip():
    manifest = DatasetManifest(format_version=MANIFEST_FORMAT_VERSION, system="double_well",
                               system_params={}, dim=1, seed=3, n_train=10,
                               n_val=2, n_steps=20, dt=0.001, noise_std=0.01)
    again = DatasetManifest.from_json(manifest.to_json())
    assert again == manifest
    assert manifest.n_traj == 12
    assert manifest.shape == (12, 21, 2)
    for version in (MANIFEST_FORMAT_VERSION - 1, MANIFEST_FORMAT_VERSION + 1):
        with pytest.raises(ValueError, match="format_version"):
            DatasetManifest.from_json(json.dumps({"format_version": version}))


def test_manifest_names_unknown_and_missing_keys():
    raw = json.loads(DatasetManifest(
        format_version=MANIFEST_FORMAT_VERSION, system="double_well", system_params={},
        dim=1, seed=3, n_train=10, n_val=2, n_steps=20, dt=0.001,
        noise_std=0.01).to_json())
    with pytest.raises(ValueError, match="unknown \\['colour'\\]"):
        DatasetManifest.from_json(json.dumps({**raw, "colour": "blue"}))
    del raw["dt"]
    with pytest.raises(ValueError, match="missing \\['dt'\\]"):
        DatasetManifest.from_json(json.dumps(raw))
    with pytest.raises(ValueError, match="JSON object"):
        DatasetManifest.from_json("[1, 2]")


VALID_MANIFEST = DatasetManifest(
    format_version=MANIFEST_FORMAT_VERSION, system="double_well", system_params={}, dim=1,
    seed=3, n_train=10, n_val=2, n_steps=20, dt=0.001, noise_std=0.01)


@pytest.mark.parametrize("field,value", [
    ("format_version", True), ("system", 3), ("system_params", []),
    ("dim", "1"), ("dim", 0), ("seed", -1), ("n_train", -3), ("n_train", True),
    ("n_val", -1), ("n_steps", 20.0), ("dt", 0.0), ("dt", float("nan")),
    ("dt", "0.001"), ("noise_std", -0.01), ("noise_std", float("inf")),
])
def test_manifest_rejects_a_bad_field_by_name(field, value):
    raw = json.loads(VALID_MANIFEST.to_json())
    with pytest.raises(ValueError, match=field):
        DatasetManifest.from_json(json.dumps({**raw, field: value}))


def test_generate_writes_the_documented_layout(tmp_path):
    manifest, clean, noisy = small_dataset(tmp_path)
    root = tmp_path / "ds"
    assert sorted(p.name for p in root.iterdir()) == [CLEAN_NAME,
                                                      MANIFEST_NAME, NOISY_NAME]
    assert clean.shape == (12, 41, 2)
    assert noisy.shape == clean.shape
    # stored bytes are little-endian float64, row-major
    raw = np.frombuffer((root / CLEAN_NAME).read_bytes(), dtype="<f8")
    assert np.array_equal(raw.reshape(clean.shape), clean)
    again_manifest, again_clean, again_noisy = load_dataset(root)
    assert again_manifest == manifest
    assert np.array_equal(again_clean, clean)
    assert np.array_equal(again_noisy, noisy)


def test_generation_is_deterministic(tmp_path):
    _, clean_a, noisy_a = small_dataset(tmp_path / "a")
    _, clean_b, noisy_b = small_dataset(tmp_path / "b")
    assert hashlib.sha256(clean_a.tobytes()).hexdigest() == \
           hashlib.sha256(clean_b.tobytes()).hexdigest()
    assert np.array_equal(noisy_a, noisy_b)
    _, clean_c, _ = small_dataset(tmp_path / "c", seed=6)
    assert not np.array_equal(clean_a, clean_c)


def test_datasets_of_different_seeds_share_no_noise_row(tmp_path):
    # trajectory i draws its noise from the stream (seed, 0, i), so no noise
    # row of one seed reappears, at any index, under another
    noise = []
    for seed in (0, 1):
        _, clean, noisy = small_dataset(tmp_path / str(seed), seed=seed)
        noise.append((noisy - clean).reshape(len(clean), -1))
    gap = np.max(np.abs(noise[0][:, None, :] - noise[1][None, :, :]), axis=2)
    assert gap.min() > 1e-6


def test_trajectories_solve_the_dynamics(tmp_path):
    manifest, clean, _ = small_dataset(tmp_path, n_steps=20)
    dw = get_system("double_well")
    # derivative check at interior points via central differences in time
    mid = (clean[:, 2:, :] - clean[:, :-2, :]) / (2 * manifest.dt)
    f = dw.dynamics(clean[:, 1:-1, :].reshape(-1, 2)).reshape(mid.shape)
    assert np.max(np.abs(mid - f)) <= 5e-6  # O(dt^2) central-difference error
    # energy must be conserved far below the noise scale
    e = dw.hamiltonian(clean.reshape(-1, 2)).reshape(clean.shape[:2])
    assert np.max(np.abs(e - e[:, :1])) <= 1e-12


def test_noise_statistics_and_independence(tmp_path):
    manifest, clean, noisy = small_dataset(tmp_path, n_train=60, n_val=0,
                                           n_steps=40, noise_std=0.01)
    resid = (noisy - clean).ravel()
    assert resid.size >= 4900
    assert abs(resid.std() - 0.01) <= 0.0004
    assert abs(resid.mean()) <= 0.001


def test_train_content_does_not_depend_on_validation_count(tmp_path):
    # growing or shrinking the validation split must not move the training
    # trajectories, including for the energy-capped sampler
    for system in ("double_well", "henon_heiles"):
        _, clean_small, noisy_small = small_dataset(
            tmp_path / f"{system}-small", system=system, n_train=6, n_val=1,
            n_steps=10)
        _, clean_big, noisy_big = small_dataset(
            tmp_path / f"{system}-big", system=system, n_train=6, n_val=5,
            n_steps=10)
        assert np.array_equal(clean_small[:6], clean_big[:6])
        assert np.array_equal(noisy_small[:6], noisy_big[:6])


def test_energy_cap_rejection(tmp_path):
    hh = get_system("henon_heiles")
    rng = np.random.default_rng(9)
    ics = sample_initial_conditions(hh, 500, rng)
    assert ics.shape == (500, 4)
    assert np.max(hh.hamiltonian(ics)) < 1.0 / 6.0
    assert np.min(ics) >= -1.0 and np.max(ics) <= 1.0


def test_split_respects_manifest(tmp_path):
    manifest, _, noisy = small_dataset(tmp_path)
    train, val = split_dataset(manifest, noisy)
    assert train.shape[0] == manifest.n_train
    assert val.shape[0] == manifest.n_val
    assert np.array_equal(np.concatenate([train, val]), noisy)


def test_sample_windows_shapes_and_content(tmp_path):
    manifest, _, noisy = small_dataset(tmp_path, n_steps=40)
    rng = np.random.default_rng(10)
    windows, traj_idx, start_idx = sample_windows(noisy, 16, window_steps=4,
                                                  rng=rng, stride=5)
    assert windows.shape == (16, 5, 2)
    for b in range(16):
        picks = noisy[traj_idx[b], start_idx[b] + 5 * np.arange(5)]
        assert np.array_equal(windows[b], picks)
    # windows never run off the stored trajectory
    assert np.all(start_idx + 4 * 5 <= manifest.n_steps)


def test_sample_windows_start_coverage(tmp_path):
    _, _, noisy = small_dataset(tmp_path, n_train=4, n_val=0, n_steps=20)
    rng = np.random.default_rng(11)
    _, traj_idx, start_idx = sample_windows(noisy, 4000, window_steps=2,
                                            rng=rng, stride=1)
    # uniform over 19 legal starts and 4 trajectories, within sampling noise
    counts = np.bincount(start_idx, minlength=19)
    assert counts.min() >= 0.8 * 4000 / 19
    assert counts.max() <= 1.2 * 4000 / 19
    assert set(np.unique(traj_idx)) == {0, 1, 2, 3}


def test_sample_windows_degenerate_fit(tmp_path):
    # when the window exactly spans the trajectory the only start is 0
    _, _, noisy = small_dataset(tmp_path, n_steps=20)
    rng = np.random.default_rng(12)
    _, _, start_idx = sample_windows(noisy, 8, window_steps=4, rng=rng,
                                     stride=5)
    assert np.all(start_idx == 0)
    with pytest.raises(ValueError, match="window"):
        sample_windows(noisy, 8, window_steps=5, rng=rng, stride=5)


@pytest.mark.parametrize("name, value", [
    ("stride", 0), ("stride", -1), ("stride", 2.5), ("stride", True),
    ("window_steps", 0), ("window_steps", 1.5),
])
def test_sample_windows_rejects_non_positive_or_fractional_sizes(name, value):
    # stride 0 divided by zero, -1 cut 1-point windows and 2.5 indexed out of
    # range; each must be a ValueError naming the argument
    noisy = np.zeros((2, 11, 2))
    kw = {"window_steps": 2, "stride": 1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        sample_windows(noisy, 4, rng=np.random.default_rng(0), **kw)


@pytest.mark.parametrize("name", ["n_steps", "batch_size", "max_traj"])
@pytest.mark.parametrize("value", [True, 2.5, 0])
def test_count_arguments_are_integers_at_least_one(tmp_path, name, value):
    # integrate's n_steps, sample_windows' batch_size and export_csv's
    # max_traj: True used to run one step or export one trajectory,
    # batch_size 0 gave an empty batch, and 2.5 raised TypeError; each must
    # be a ValueError naming the argument
    if name == "max_traj":
        small_dataset(tmp_path, n_steps=5)
    calls = {
        "n_steps": lambda: integrate(lambda y: -y, np.zeros(2), 0.1, value),
        "batch_size": lambda: sample_windows(np.zeros((2, 11, 2)), value, 2,
                                             np.random.default_rng(0)),
        "max_traj": lambda: export_csv(tmp_path / "ds", tmp_path / "dump.csv", max_traj=value),
    }
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        calls[name]()


def test_load_rejects_truncated_arrays(tmp_path):
    small_dataset(tmp_path)
    root = tmp_path / "ds"
    data = (root / NOISY_NAME).read_bytes()
    (root / NOISY_NAME).write_bytes(data[:-16])
    with pytest.raises(ValueError, match="manifest implies"):
        load_dataset(root)


@pytest.mark.parametrize("name,change", [(NOISY_NAME, 3), (CLEAN_NAME, -3)])
def test_load_requires_the_exact_byte_length(tmp_path, name, change):
    # a few trailing bytes are as wrong as a missing value
    small_dataset(tmp_path)
    path = tmp_path / "ds" / name
    data = path.read_bytes()
    path.write_bytes(data + b"\0" * change if change > 0 else data[:change])
    with pytest.raises(ValueError, match=f"{name} holds {len(data) + change} bytes"):
        load_dataset(tmp_path / "ds")


# SHA-256 of clean.f64 and noisy.f64 for small_dataset's arguments (seed 5,
# 8 + 4 trajectories, 40 steps).  The clean digests date from before
# generation streamed its files, so the streamed writer reproduces them byte
# for byte; the noisy ones from manifest format 2, whose noise streams are
# seeded with (seed, 0, i)
PINNED_SHA256 = {
    "double_well": ("191e248e1446dd0cd23cdc54251b528f586ee2b91e28f4469d470b5a4a9fdd8d",
                    "3b34a2e90bf93e27cbdba64d09aad8c0cf4a15e5491b21c0e8c193e055587544"),
    "henon_heiles": ("311396ca2bfeeab6496b707fa2d2c36491ac0bbad4c45f3af0294f33670f3df7",
                     "d53f0444607837a31c135581e18d97588c5178926a1f533e5291d4eb286a3613"),
}


@pytest.mark.parametrize("system", sorted(PINNED_SHA256))
def test_written_bytes_match_the_pinned_digests(tmp_path, system):
    small_dataset(tmp_path, system=system)
    digests = tuple(hashlib.sha256((tmp_path / "ds" / name).read_bytes()).hexdigest()
                    for name in (CLEAN_NAME, NOISY_NAME))
    assert digests == PINNED_SHA256[system]


def test_reference_solve_makes_one_field_call_per_sweep(tmp_path, monkeypatch):
    # the set-up-sized double-well set (16 + 4 trajectories, 160 steps): each
    # Gauss step evaluates the field once for its seed and once per sweep over
    # both stages, 824 calls in all where a call per stage would make 1,488
    calls, reports = [], []
    real_integrate = data.integrate

    def counted_system(name, **params):
        system = get_system(name, **params)

        def counted(y):
            calls.append(y.shape)
            return system.dynamics(y)

        return dataclasses.replace(system, dynamics=counted)

    def recorded_integrate(*args, **kwargs):
        states, step_reports = real_integrate(*args, **kwargs)
        reports.extend(step_reports)
        return states, step_reports

    monkeypatch.setattr(data, "get_system", counted_system)
    monkeypatch.setattr(data, "integrate", recorded_integrate)
    manifest, _, _ = generate_dataset("double_well", tmp_path / "ds", seed=0, n_train=16,
                                      n_val=4)
    assert manifest.n_steps == len(reports) == 160
    assert len(calls) == manifest.n_steps + sum(r.iterations for r in reports) == 824


def traced_peak(fn):
    """(fn(), the peak of NumPy and Python allocations while fn ran, in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_each_array_is_held_at_most_once(tmp_path):
    # generation holds the integrator's states and streams both files from
    # them; loading maps the files and allocates nothing of their size
    (manifest, clean, noisy), gen_peak = traced_peak(
        lambda: small_dataset(tmp_path, n_train=192, n_val=64, n_steps=160))
    array_bytes = 8 * np.prod(manifest.shape)
    assert gen_peak <= 1.5 * array_bytes
    (_, again_clean, again_noisy), load_peak = traced_peak(
        lambda: load_dataset(tmp_path / "ds"))
    assert load_peak <= 0.05 * array_bytes
    assert np.array_equal(again_clean, clean) and np.array_equal(again_noisy, noisy)


def test_loaded_arrays_are_plain_and_read_only(tmp_path):
    for arrays in (small_dataset(tmp_path)[1:], load_dataset(tmp_path / "ds")[1:]):
        for array in arrays:
            assert type(array) is np.ndarray
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0


@pytest.mark.parametrize("failing_rename", [0, 1, 2])
def test_failed_regeneration_leaves_the_old_manifest(tmp_path, monkeypatch, failing_rename):
    # the arrays are renamed into place first and the manifest last; whichever
    # rename fails, the previous manifest survives byte for byte and no temp
    # file is left behind
    small_dataset(tmp_path, seed=5)
    root = tmp_path / "ds"
    before = (root / MANIFEST_NAME).read_bytes()
    real_replace = os.replace
    renames = []

    def flaky_replace(src, dst):
        renames.append(os.path.basename(dst))
        if len(renames) - 1 == failing_rename:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    with pytest.raises(OSError, match="disk full"):
        small_dataset(tmp_path, seed=6, n_train=9)
    assert renames[-1] == [CLEAN_NAME, NOISY_NAME, MANIFEST_NAME][failing_rename]
    assert (root / MANIFEST_NAME).read_bytes() == before
    assert sorted(p.name for p in root.iterdir()) == [CLEAN_NAME, MANIFEST_NAME, NOISY_NAME]


def test_export_csv_spot_values(tmp_path):
    manifest, clean, noisy = small_dataset(tmp_path, n_steps=5)
    out = export_csv(tmp_path / "ds", tmp_path / "dump.csv", which="noisy",
                     max_traj=2)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "traj,step,t,q0,p0"
    assert len(lines) == 1 + 2 * 6
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "0"
    assert float(cells[3]) == noisy[0, 0, 0]
    assert float(cells[4]) == noisy[0, 0, 1]
    last = lines[-1].split(",")
    assert last[0] == "1" and last[1] == "5"
    assert float(last[2]) == pytest.approx(5 * manifest.dt)


def test_generate_validates_arguments(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset("double_well", tmp_path / "x", seed=0, n_train=0,
                         n_val=1)
    with pytest.raises(ValueError):
        generate_dataset("double_well", tmp_path / "x", seed=0, n_train=1,
                         n_val=1, dt=0.0)
    with pytest.raises(ValueError, match="unknown system"):
        generate_dataset("lorenz", tmp_path / "x", seed=0, n_train=1, n_val=1)
