"""Trajectory datasets: generation, binary storage, window sampling.

A dataset is a directory holding

    manifest.json   versioned description: system, sizes, step, noise, seed
    clean.f64       [n_traj, n_steps + 1, 2d] little-endian float64, row-major
    noisy.f64       same shape: clean plus i.i.d. N(0, noise_std^2) per scalar

with the first n_train trajectories forming the training split and the rest
validation.  Trajectories come from the order-4 Gauss reference integrator at
the stored step size.  Initial conditions are drawn uniformly from the
system's phase-space box (with rejection below the energy cap where the
system defines one) by `sample_initial_conditions`, which draws the CLI's
and the profiler's starts too.  Noise for trajectory i comes from its own
generator seeded with (seed, 0, i), so datasets made with different seeds
share no noise stream, and the content of a trajectory never depends on
how many trajectories surround it or in what order they were produced.

Each array exists in memory at most once.  Generation keeps only the
integrator's time-major states, streams both files from them one
trajectory at a time and frees them before mapping the files back; loading
maps both files read-only, so only the pages a caller touches become
resident (training reads noisy alone).
"""

import contextlib
import dataclasses
import json
import math
import os
import pathlib

import numpy as np

from .integrators import REFERENCE_FPI, _check_count, _is_finite, _is_int, integrate
from .systems import get_system

MANIFEST_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
CLEAN_NAME = "clean.f64"
NOISY_NAME = "noisy.f64"

DEFAULT_DT = 0.001
# long enough to host coarsened training windows (stride * window + 1 points)
DEFAULT_N_STEPS = 160
DEFAULT_NOISE_STD = 0.01

FULL_SCALE = {"n_train": 16384, "n_val": 8192}
SMOKE_SCALE = {"n_train": 1024, "n_val": 256}


@dataclasses.dataclass(frozen=True)
class DatasetManifest:
    format_version: int
    system: str
    system_params: dict
    dim: int
    seed: int
    n_train: int
    n_val: int
    n_steps: int
    dt: float
    noise_std: float

    @property
    def n_traj(self):
        return self.n_train + self.n_val

    @property
    def shape(self):
        return (self.n_traj, self.n_steps + 1, 2 * self.dim)

    def __post_init__(self):
        """Reject a field of the wrong type or range, naming it: counts are
        integers (not booleans); dt, noise_std and the system parameters
        finite numbers; system, with system_params, a registered system of that dim."""
        for name, low in (("dim", 1), ("seed", 0), ("n_train", 1), ("n_val", 0),
                          ("n_steps", 1)):
            _check_count(f"manifest {name}", getattr(self, name), low)
        if not (_is_finite(self.dt) and self.dt > 0):
            raise ValueError(f"manifest dt must be a finite number > 0, got {self.dt!r}")
        if not (_is_finite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"manifest noise_std must be a finite number >= 0, "
                             f"got {self.noise_std!r}")
        for name, kind in (("system", str), ("system_params", dict)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"manifest {name} must be a {kind.__name__}, got {value!r}")
        if not all(_is_finite(v) for v in self.system_params.values()):
            raise ValueError(f"manifest system_params must map names to finite numbers, "
                             f"got {self.system_params!r}")
        dim = get_system(self.system, **self.system_params).dim
        if self.dim != dim:
            raise ValueError(f"manifest dim is {self.dim}, but system {self.system!r} has {dim}")

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, path):
        """The manifest in the file at path; errors name path."""
        return cls(**_read_json(path, version=MANIFEST_FORMAT_VERSION,
                                keys={f.name for f in dataclasses.fields(cls)}))


def sample_initial_conditions(system, n, rng):
    """Uniform draws from the system's box, rejecting states at/above the
    energy cap when the system defines one.  Accepted states keep draw order,
    so the first k results do not depend on n."""
    lo = system.bounds[:, 0]
    hi = system.bounds[:, 1]
    if system.ic_energy_cap is None:
        return rng.uniform(lo, hi, size=(n, system.width))
    out = np.empty((n, system.width))
    have = 0
    while have < n:
        # fixed block size: the accepted sequence is then a pure function of
        # the stream, so the first k draws never depend on n
        block = rng.uniform(lo, hi, size=(256, system.width))
        keep = block[system.hamiltonian(block) < system.ic_energy_cap]
        take = min(len(keep), n - have)
        out[have:have + take] = keep[:take]
        have += take
    return out


def generate_dataset(system_name, out_dir, seed, n_train, n_val,
                     n_steps=DEFAULT_N_STEPS, dt=DEFAULT_DT,
                     noise_std=DEFAULT_NOISE_STD, system_params=None):
    """Integrate, corrupt, and write one dataset directory.

    Returns load_dataset(out_dir): (manifest, clean, noisy), read-only maps of
    the written files.  The only full-size array held is the integrator's
    time-major states; clean.f64 and then noisy.f64 are streamed from it one
    trajectory at a time, each noisy trajectory drawing its noise as it is
    written.  Deterministic for fixed arguments: the reference integration
    is batched across trajectories but convergence is independent of machine
    parallelism, and every random stream is seeded.
    """
    system_params = dict(system_params or {})
    system = get_system(system_name, **system_params)
    manifest = DatasetManifest(
        format_version=MANIFEST_FORMAT_VERSION,
        system=system_name,
        system_params=system_params,
        dim=system.dim,
        seed=seed,
        n_train=n_train,
        n_val=n_val,
        n_steps=n_steps,
        dt=dt,
        noise_std=noise_std,
    )

    ic_rng = np.random.default_rng((seed, 1))  # distinct from the (seed, 0, i) noise streams
    ics = sample_initial_conditions(system, manifest.n_traj, ic_rng)
    # [n + 1, n_traj, 2d]: trajectory i is states[:, i]
    states, _ = integrate(system.dynamics, ics, dt, n_steps, method="gauss2", cfg=REFERENCE_FPI)
    row_shape = manifest.shape[1:]
    clean_rows = (states[:, i] for i in range(manifest.n_traj))
    noisy_rows = (states[:, i]
                  + noise_std * np.random.default_rng((seed, 0, i)).standard_normal(row_shape)
                  for i in range(manifest.n_traj))

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # arrays first, manifest last: a manifest never describes partial arrays
    for name, rows in ((CLEAN_NAME, clean_rows), (NOISY_NAME, noisy_rows)):
        with open_atomically(out_dir / name, "wb") as fh:
            for row in rows:
                fh.write(np.ascontiguousarray(row, dtype="<f8"))
    with open_atomically(out_dir / MANIFEST_NAME) as fh:
        fh.write(manifest.to_json())
    del states   # freed before load_dataset faults in noisy to check it
    return load_dataset(out_dir)


def load_dataset(dataset_dir):
    """Open a dataset directory; returns (manifest, clean, noisy).

    Both arrays are read-only memory maps of their files, as plain ndarrays.
    Nothing is read until a caller indexes them, and then only the pages it
    touches, so training, which samples noisy alone, never pages in clean.
    Each file must hold exactly the bytes the manifest implies, noisy only
    finite values.
    """
    dataset_dir = pathlib.Path(dataset_dir)
    manifest = DatasetManifest.from_json(dataset_dir / MANIFEST_NAME)
    expected = 8 * math.prod(manifest.shape)
    arrays = []
    for name in (CLEAN_NAME, NOISY_NAME):
        size = (dataset_dir / name).stat().st_size
        if size != expected:
            raise ValueError(f"{name} holds {size} bytes, manifest implies {expected}")
        arrays.append(np.memmap(dataset_dir / name, dtype="<f8", mode="r",
                                shape=manifest.shape).view(np.ndarray))
    # min and max propagate NaN and reach any infinity, and allocate nothing
    if not (math.isfinite(arrays[1].min()) and math.isfinite(arrays[1].max())):
        raise ValueError(f"{NOISY_NAME} holds non-finite values")
    return manifest, arrays[0], arrays[1]


def split_dataset(manifest, array):
    """(train, val) views of a [n_traj, ...] array per the manifest split."""
    return array[:manifest.n_train], array[manifest.n_train:]


def sample_windows(trajectories, batch_size, window_steps, rng, stride=1):
    """Random observation windows for one batch.

    Picks batch_size (trajectory, start) pairs uniformly; a window takes
    every stride-th stored point, window_steps + 1 of them, so it spans
    window_steps solver steps of size stride * dt.  Returns
    (windows [window_steps + 1, B, 2d], traj_idx, start_idx), time-major
    like a rollout's states: windows[k, b] is traj_idx[b]'s point start_idx[b] + k * stride.
    batch_size, window_steps and stride must be integers >= 1.
    """
    for name, value in (("batch_size", batch_size), ("window_steps", window_steps),
                        ("stride", stride)):
        _check_count(name, value)
    n_traj, n_points = trajectories.shape[:2]
    span = window_steps * stride
    if span + 1 > n_points:
        raise ValueError(
            f"window needs {span + 1} stored points, trajectories have {n_points}"
        )
    traj_idx = rng.integers(0, n_traj, size=batch_size)
    start_idx = rng.integers(0, n_points - span, size=batch_size)
    offsets = np.arange(0, span + 1, stride)
    windows = trajectories[traj_idx[None, :], start_idx[None, :] + offsets[:, None]]
    return windows, traj_idx, start_idx


@contextlib.contextmanager
def open_atomically(path, mode="w"):
    """Open a temp file beside path for writing (text is UTF-8); on a clean
    exit rename it over path, on an error delete it.  path then holds either
    its old content or the whole new one, never a partial write."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_json(path, version=None, keys=None, optional=frozenset()):
    """The JSON object in the UTF-8 file at path, as a dict.

    With version given, its format_version must equal it (checked before the
    keys, so an old file says it is old); with keys given, it must hold
    exactly those keys, less any of optional it leaves out.  Anything else
    raises one ValueError naming path.
    """
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:   # bad JSON or UTF-8, or nested too deep
        raise ValueError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(raw).__name__}")
    if version is not None and not (_is_int(raw.get("format_version"))
                                    and raw["format_version"] == version):
        raise ValueError(f"{path}: unsupported format_version {raw.get('format_version')!r}")
    if keys is not None and not keys - optional <= raw.keys() <= keys:
        raise ValueError(f"{path} keys: unknown {sorted(raw.keys() - keys)}, "
                         f"missing {sorted(keys - optional - raw.keys())}")
    return raw


def write_csv(path, header, rows):
    """Write a header line and rows to path as CSV, atomically: floats as
    repr(float(v)), which reads back to the same double, everything else as
    str(v)."""
    with open_atomically(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def export_csv(dataset_dir, out_path, which="noisy", max_traj=None):
    """Flatten a dataset array to CSV for eyeballing: one row per stored point."""
    manifest, clean, noisy = load_dataset(dataset_dir)
    if which not in ("clean", "noisy"):
        raise ValueError("which must be 'clean' or 'noisy'")
    data = clean if which == "clean" else noisy
    if max_traj is not None:
        _check_count("max_traj", max_traj)
        data = data[:max_traj]
    d = manifest.dim
    cols = ["traj", "step", "t"] + [f"q{i}" for i in range(d)] + [f"p{i}" for i in range(d)]
    rows = ((i, s, float(s * manifest.dt), *data[i, s])
            for i in range(data.shape[0]) for s in range(data.shape[1]))
    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out_path, cols, rows)
    return out_path
