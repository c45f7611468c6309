"""The benchmark's own test: traced runs repeat their counts exactly.

For each workload, two traced runs with the same seed go side by side; every
count, solver-iteration mean, quality figure and meter peak must come out
identical, and the call counts that tell the two gradient engines apart must
read as predicted.  Slow (several minutes): run it on its own, from the
repository root,

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_SUFFIXES = (".calls", ".iters_mean", "_bytes", "bytes_written", "_ratio_32_4", "_rel",
                  ".field_evals_per_step", ".converged_frac", ".nonconverged_frac")


def exact(name):
    return name.startswith("quality.") or name.endswith(EXACT_SUFFIXES)


def traced_pair(workload, seed):
    """Two traced runs side by side; each one's result and machine record.
    They receive two BLAS threads, which the benchmark must override."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2")
    procs = [subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    results = []
    for proc in procs:
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0
        lines = out.strip().splitlines()
        machine = [json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine ")]
        results.append((json.loads(lines[-1]), machine[0]))
    return results


@pytest.mark.parametrize("workload", ["dw-adjoint", "hh-backprop"])
def test_counts_and_quality_repeat_exactly(workload):
    (first, machine), (second, _) = traced_pair(workload, seed=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert machine["blas_threads_received"]["OPENBLAS_NUM_THREADS"] == "2"
    assert machine["blas_threads_in_use"] in (1, None)
    checked = [name for name in first["metrics"] if exact(name)]
    assert len(checked) > 20
    for name in checked:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    m = {name: v["value"] for name, v in first["metrics"].items()}
    assert m["training.loss_and_grad.calls"] == 320
    if workload == "dw-adjoint":
        assert m["adjoint.costate_sweep.calls"] == 320
        assert m["model.field_vjp.calls"] == 0
    else:
        assert m["adjoint.costate_sweep.calls"] == 0
        assert m["model.hess_state.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    """Outside a checkout that holds src/symplearn the benchmark exits non-zero
    and prints no result."""
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                          "dw-adjoint", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
