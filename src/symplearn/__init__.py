"""Learn Hamiltonian dynamics from noisy trajectories, symplectically.

The package fits a small feed-forward Hamiltonian to observed phase-space
trajectories by rolling an implicit midpoint integrator forward inside the
loss and differentiating through it, either with a backward costate sweep
(constant memory in the window length) or by reverse-mode through the solver
iterations (a cross-check that agrees to solver tolerance).

Import each name from its submodule (`from symplearn.training import
train`).  This module imports nothing: importing the package must not load
numpy, so that the command-line entry point can cap BLAS thread counts via
environment variables before numpy first initializes.
"""

__version__ = "0.1.0"
