"""Benchmark entry point: drives the user's CLI stages and times them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`, so no
install is needed.  BLAS runs on one thread.

Set-up is what a user's first command pays: a fresh interpreter imports
the package and runs a tiny pass over the workload's stages.  It runs
SETUP_REPEATS times, each in its own process, and setup_s is the median.
The same tiny pass then runs once in this process, untimed, so first-call
costs stay out of what is timed.  The workload's stages (see workloads.py)
then run once: gen-data, train, eval.  Every stage's artifacts are checked
outside its timed interval, and a stage that exits non-zero or fails its
check counts as failed.

With --trace 0 the trained model's training step, the loss and gradient of
one seeded batch at the workload's training config, then repeats for S
seconds; every repeat must return the same result bit for bit.  The last
stdout line holds the end-to-end metrics: setup_s, train_step_ms (the
fastest repeat) and the process's peak RSS.  The fastest repeat, not the
median, is reported because on a shared host the whole pipeline and the
median step slow down together by 15 to 30% for minutes at a time while
neighbours run, whereas the fastest of several hundred identical steps
stays within a few percent: interference only ever adds time.  The step is
taken at the trained model, not at initialisation, because the fixed-point
solver's iteration count, which ranks the two gradient engines, depends on
what the model has learned.

With --trace 1 the pipeline's untraced stage times are kept (stage.*), one
more repeat runs with span tracing installed (tracing.py), then untimed
probes of gradient agreement and allocation-meter peaks; the last line
holds the per-layer metrics.  The spans, the per-layer table (summarise.py)
and a full result record with the machine description go under .bench_out/.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the thread environment as the process received it, for the machine record
RECEIVED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
# One BLAS thread, so timings do not depend on cores.  BLAS reads these when
# NumPy first loads, so they are set here, before any benchmark module (all
# of which load NumPy) is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# A cold start takes about 0.5 s and single ones vary by 15% or more on a
# shared host, so the median rests on fifteen.
SETUP_REPEATS = 15
# the replay times at least this many steps however short --seconds is
MIN_STEPS = 10
# c4 compares the engines at this solver tolerance and relative level; at the
# training default (1e-10) the fixed-point residual alone reaches about 1e-6
AGREEMENT_TOL = 1e-12
AGREEMENT_MAX_REL = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- machine


def _read(path):
    try:
        return pathlib.Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = _read(index / "size")
    return sizes


def _blas_threads_in_use():
    """The thread count the loaded OpenBLAS reports, or None where no
    OpenBLAS is mapped into this process or it exports no such query."""
    import ctypes
    paths = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines()
             if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit(root):
    if not (root / ".git").exists():  # an exported checkout: git would search its parents
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record(root, args):
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_received": RECEIVED_THREAD_ENV,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_in_use": _blas_threads_in_use(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------- stages


# run by a fresh interpreter: import the package, then run each stage's argv
COLD_START = """import json, sys
sys.path.insert(0, sys.argv[1])
from symplearn import cli
for argv in json.loads(sys.argv[2]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(code)
"""


class Runner:
    """Runs stages through cli.main, times them and tallies failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []

    def _finish(self, stage, code, output):
        self.attempted += 1
        problem = f"exit {code}" if code != 0 else stage.check()
        if problem:
            self.failures.append(f"{' '.join(stage.argv)}: {problem}")
            print(f"stage failed: {self.failures[-1]}\n{output}", file=sys.stderr)

    def stage(self, stage):
        """Run one stage; returns its wall time in seconds."""
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(stage.argv))
        except Exception:  # a stage that crashes is a failed operation
            code = "exception:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self._finish(stage, code, out.getvalue())
        return elapsed

    def cold_start(self, stages, src):
        """Run stages in a fresh interpreter that first imports the package;
        returns the process's wall time in seconds."""
        argv = [sys.executable, "-c", COLD_START, str(src),
                json.dumps([list(stage.argv) for stage in stages])]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                                  check=False)
            code, output = proc.returncode, proc.stdout + proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, output = "timeout", ""
        elapsed = time.perf_counter() - t0
        for stage in stages:
            self._finish(stage, code, output)
        return elapsed

    def stages(self, stages, samples, tracer=None):
        """Run stages in order; returns the sum of their wall times, which
        leaves out the benchmark's own output checks."""
        total = 0.0
        for i, stage in enumerate(stages):
            if tracer is not None:
                tracer.run_id = i
            elapsed = self.stage(stage)
            total += elapsed
            if stage.metric is not None:
                samples.setdefault(stage.metric, []).append(elapsed)
        return total


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------- probes


def training_batch(workload, fit_dir, data_dir, seed):
    """The trained model and one seeded batch at the workload's training
    config: (net, theta, windows, h, config)."""
    import numpy as np

    from symplearn.data import load_dataset, sample_windows, split_dataset
    from symplearn.model import load_checkpoint
    from symplearn.training import TrainConfig

    manifest, _, noisy = load_dataset(data_dir)
    net, theta, _ = load_checkpoint(fit_dir / "model.json")
    train_traj, _ = split_dataset(manifest, noisy)
    config = TrainConfig(grad_mode=workload.grad_mode, hidden=net.arch[1:-1])
    batch = min(config.batch_size, len(train_traj) * config.windows_per_traj)
    windows, _, _ = sample_windows(train_traj, batch, config.window_steps,
                                   np.random.default_rng((seed, 7)), stride=config.stride)
    return net, theta, windows, config.stride * manifest.dt, config


def replay_steps(batch, seconds, runner):
    """Repeat one training step's loss and gradient on the same batch for
    `seconds`; returns each call's wall time.  Every call must return the
    same finite loss and gradient, bit for bit."""
    import numpy as np

    from symplearn.training import loss_and_grad

    net, theta, windows, h, config = batch
    loss0, grad0, _ = loss_and_grad(net, theta, windows, h, config)  # untimed warm-up
    runner.attempted += 1
    if not (np.isfinite(loss0) and np.all(np.isfinite(grad0))):
        runner.failures.append("replayed step: non-finite loss or gradient")
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_STEPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        loss, grad, _ = loss_and_grad(net, theta, windows, h, config)
        times.append(time.perf_counter() - t0)
        runner.attempted += 1
        if loss != loss0 or not np.array_equal(grad, grad0):
            runner.failures.append(f"replayed step {len(times)}: result differs from the first")
    return times


def gradient_probe(workload, fit_dir, data_dir, seed):
    """One batch at the workload's training config: the allocation-meter peak
    of one loss and gradient, and the costate engine's largest relative
    deviation from recorded backprop (the c4 measure)."""
    import numpy as np

    from symplearn.integrators import FpiConfig
    from symplearn.memory import METER
    from symplearn.training import TrainConfig, loss_and_grad

    net, theta, windows, h, config = training_batch(workload, fit_dir, data_dir, seed)
    with METER.measure() as meter:
        loss_and_grad(net, theta, windows, h, config)
        peak = meter.peak_bytes

    tight = FpiConfig(tol=AGREEMENT_TOL, max_iters=100)
    grads = {}
    for mode in ("adjoint", "backprop"):
        cfg = TrainConfig(grad_mode=mode, hidden=net.arch[1:-1], fpi=tight)
        grads[mode] = loss_and_grad(net, theta, windows, h, cfg)[1]
    g_adj, g_bp = grads["adjoint"], grads["backprop"]
    floor = 1e-6 * max(float(np.max(np.abs(g_adj))), float(np.max(np.abs(g_bp))), 1e-300)
    rel = float(np.max(np.abs(g_adj - g_bp)
                       / np.maximum(np.maximum(np.abs(g_adj), np.abs(g_bp)), floor)))
    return peak, rel


def peak_ratios():
    """Meter peak at 32 steps over the peak at 4, per engine."""
    from symplearn.profiling import profile_gradient_modes
    rows = profile_gradient_modes(window_steps=(4, 8, 16, 32), repeats=1)
    peaks = {(r.grad_mode, r.window_steps): r.peak_bytes for r in rows}
    return {mode: peaks[(mode, 32)] / peaks[(mode, 4)] for mode in ("adjoint", "backprop")}


# ---------------------------------------------------------- layer metrics


def layer_metrics(by_name, by_layer, tracer, extra):
    """The per-layer metrics of one traced repeat, as name -> (value, unit)."""
    from summarise import percentile_ms

    def entry(name):
        return by_name.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    def pct(name, q):
        return percentile_ms(entry(name)["durations"], q)

    stats, counts = tracer.stats, tracer.counts
    m = {}
    lag = "training.loss_and_grad"
    m[f"{lag}.calls"] = (entry(lag)["calls"], "count")
    m[f"{lag}.self_s"] = (entry(lag)["self_s"], "s")
    m[f"{lag}.p50_ms"] = (pct(lag, 50), "ms")
    m[f"{lag}.p95_ms"] = (pct(lag, 95), "ms")
    m["training.validation_s"] = (entry("training._forward_loss")["total_s"], "s")
    m["training.adam_step.total_s"] = (entry("training.Adam.step")["total_s"], "s")

    sweep = entry("adjoint.solve_adjoint_accumulate")
    m["adjoint.costate_sweep.calls"] = (sweep["calls"], "count")
    m["adjoint.costate_sweep.total_s"] = (sweep["total_s"], "s")
    m["adjoint.costate_sweep.converged_frac"] = (
        stats["adjoint.costate_sweep.converged_sum"] / sweep["calls"] if sweep["calls"] else 0.0,
        "ratio")
    m["adjoint.record_rollout.total_s"] = (entry("adjoint.record_rollout")["total_s"], "s")
    m["adjoint.backward.total_s"] = (entry("adjoint.backward_through_record")["total_s"], "s")
    m["adjoint.grad_agreement_rel"] = (extra["grad_agreement_rel"], "ratio")

    for op in ("dynamics", "hess_state", "vjp_params", "field_vjp", "eval_h"):
        e = entry(f"model.HamiltonianNet.{op}")
        m[f"model.{op}.calls"] = (e["calls"], "count")
        m[f"model.{op}.total_s"] = (e["total_s"], "s")
    dyn = entry("model.HamiltonianNet.dynamics")
    m["model.dynamics.us_per_call"] = (
        dyn["total_s"] / dyn["calls"] * 1e6 if dyn["calls"] else 0.0, "us")
    steps = stats["integrators.midpoint_step.steps"] + stats["adjoint.record_rollout.steps"]
    evals = counts["model.HamiltonianNet._reverse_input"]
    m["model.field_evals_per_step"] = (evals / steps if steps else 0.0, "count")

    for key, name in (("midpoint_step", "implicit_midpoint_step"), ("prk_step", "prk_step")):
        e = entry(f"integrators.{name}")
        n = stats[f"integrators.{key}.steps"]
        m[f"integrators.{key}.calls"] = (e["calls"], "count")
        m[f"integrators.{key}.total_s"] = (e["total_s"], "s")
        m[f"integrators.{key}.iters_mean"] = (
            stats[f"integrators.{key}.iters"] / n if n else 0.0, "count")
    n = stats["integrators.midpoint_step.steps"]
    m["integrators.midpoint_step.nonconverged_frac"] = (
        stats["integrators.midpoint_step.nonconverged"] / n if n else 0.0, "ratio")

    m["data.generate_dataset.total_s"] = (entry("data.generate_dataset")["total_s"], "s")
    m["data.bytes_written"] = (int(stats["data.bytes_written"]), "B")
    m["data.sample_windows.calls"] = (entry("data.sample_windows")["calls"], "count")
    m["data.sample_windows.total_s"] = (entry("data.sample_windows")["total_s"], "s")

    m["evaluation.evaluate_ood.total_s"] = (entry("evaluation.evaluate_ood")["total_s"], "s")
    m["evaluation.energy_drift.calls"] = (entry("evaluation.energy_drift")["calls"], "count")
    m["evaluation.energy_drift.total_s"] = (entry("evaluation.energy_drift")["total_s"], "s")

    m["memory.grad_peak_bytes"] = (extra["grad_peak_bytes"], "B")
    m["memory.adjoint_peak_ratio_32_4"] = (extra["peak_ratios"]["adjoint"], "ratio")
    m["memory.backprop_peak_ratio_32_4"] = (extra["peak_ratios"]["backprop"], "ratio")
    m["memory.track.calls"] = (counts["memory.AllocationMeter.track"], "count")

    for layer in ("cli", "data", "systems", "integrators", "model", "adjoint",
                  "training", "evaluation"):
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")

    for key, value in extra["quality"].items():
        m[f"quality.{key}"] = (value, "ratio" if key == "loss_reduction" else "1")
    m["tracing_overhead_s"] = (extra["tracing_overhead_s"], "s")
    return m


# ------------------------------------------------------------------- main


def main(argv=None):
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "symplearn" / "__init__.py").is_file():
        print(f"error: no symplearn sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(root / "src"))
    from symplearn import cli

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    work = root / ".bench_run" / f"{tag}_{os.getpid()}"
    runner = Runner(cli)
    samples = {}
    try:
        setup_times = [runner.cold_start(workload.setup(fresh(work / "setup")), root / "src")
                       for _ in range(0 if args.trace else SETUP_REPEATS)]
        runner.stages(workload.setup(fresh(work / "setup")), {})
        loop_root = fresh(work / "loop")
        pipeline_s = runner.stages(workload.iteration(loop_root, args.seed), samples)
        if runner.failures:  # what follows reads the pipeline's model and data
            print(f"error: {len(runner.failures)} stage(s) failed; no result", file=sys.stderr)
            return 1
        record = {"machine": machine_record(root, args), "samples": samples,
                  "setup_times": setup_times, "pipeline_s": pipeline_s}
        if args.trace:
            metrics = traced(workload, runner, work, args.seed, pipeline_s, out_dir / tag,
                             record)
            metrics["stage.pipeline_s"] = (pipeline_s, "s")
            for name in ("gen_data_s", "train_s", "eval_s"):
                metrics[f"stage.{name}"] = (samples[name][0], "s")
        else:
            batch = training_batch(workload, loop_root / "fit", loop_root / "ds", args.seed)
            step_times = replay_steps(batch, args.seconds, runner)
            record["step_times"] = step_times
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "train_step_ms": (min(step_times) * 1e3, "ms"),
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_run").rmdir()

    record["failures"] = runner.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": record["metrics"],
    }))
    return 0


def traced(workload, runner, work, seed, untraced_s, prefix, record):
    """One repeat under span tracing, then the untimed probes."""
    from summarise import format_table, summarise
    from tracing import Tracer
    from workloads import read_quality

    tracer = Tracer()
    loop_root = fresh(work / "traced")
    stages = workload.iteration(loop_root, seed)
    with tracer:
        traced_s = runner.stages(stages, {}, tracer=tracer)
    tracer.save(f"{prefix}_spans.npz")
    arrays = tracer.arrays()
    by_name, by_layer = summarise(tracer.names, arrays["name_id"], arrays["start"],
                                  arrays["end"], arrays["parent"])
    pathlib.Path(f"{prefix}_layers.txt").write_text(format_table(by_name, by_layer),
                                                    encoding="utf-8")

    fit_dir, data_dir = loop_root / "fit", loop_root / "ds"
    runner.attempted += 1
    peak, rel = gradient_probe(workload, fit_dir, data_dir, seed)
    if not rel <= AGREEMENT_MAX_REL:
        runner.failures.append(f"costate vs backprop relative deviation {rel:.3e} "
                               f"> {AGREEMENT_MAX_REL}")
    quality = read_quality(loop_root / "eval", fit_dir)
    extra = {"grad_agreement_rel": rel, "grad_peak_bytes": peak, "peak_ratios": peak_ratios(),
             "quality": quality, "tracing_overhead_s": traced_s - untraced_s}
    record["counts"] = dict(tracer.counts)
    record["stats"] = dict(tracer.stats)
    return layer_metrics(by_name, by_layer, tracer, extra)


if __name__ == "__main__":
    sys.exit(main())
