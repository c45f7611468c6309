"""Learn Hamiltonian dynamics from noisy trajectories, symplectically.

The package fits a small feed-forward Hamiltonian to observed phase-space
trajectories by rolling an implicit midpoint integrator forward inside the
loss and differentiating through it, either with a backward costate sweep
(constant memory in the window length) or by reverse-mode through the solver
iterations (a cross-check that agrees to solver tolerance).

Re-exports resolve lazily: importing this package must not load numpy, so
that the command-line entry point can cap BLAS thread counts via environment
variables before numpy first initializes.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "AdjointDiagnostics": "adjoint",
    "backward_through_record": "adjoint",
    "record_rollout": "adjoint",
    "solve_adjoint_accumulate": "adjoint",
    "DatasetManifest": "data",
    "export_csv": "data",
    "generate_dataset": "data",
    "load_dataset": "data",
    "sample_windows": "data",
    "split_dataset": "data",
    "energy_drift": "evaluation",
    "evaluate_ood": "evaluation",
    "phase_grid": "evaluation",
    "report_table": "evaluation",
    "FpiConfig": "integrators",
    "NonFiniteError": "integrators",
    "PrkTableau": "integrators",
    "StepReport": "integrators",
    "TABLEAUX": "integrators",
    "Trajectory": "integrators",
    "check_symplectic_tableau": "integrators",
    "implicit_midpoint_step": "integrators",
    "integrate": "integrators",
    "prk_step": "integrators",
    "METER": "memory",
    "HamiltonianNet": "model",
    "costate_to_direction": "model",
    "load_checkpoint": "model",
    "param_count": "model",
    "save_checkpoint": "model",
    "ProfileRow": "profiling",
    "profile_gradient_modes": "profiling",
    "profile_to_csv": "profiling",
    "HamiltonianSystem": "systems",
    "SYSTEMS": "systems",
    "get_system": "systems",
    "Adam": "training",
    "NumericalAbort": "training",
    "ReduceOnPlateau": "training",
    "TrainConfig": "training",
    "TrainResult": "training",
    "loss_and_grad": "training",
    "metrics_to_csv": "training",
    "saturation_epoch": "training",
    "train": "training",
    "window_loss": "training",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
