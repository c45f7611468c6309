"""Model quality checks on held-out phase-space grids and energy drift.

A learned Hamiltonian is only determined up to an additive constant (the
dynamics see gradients, never the value), so value comparisons subtract the
mean offset over the grid before measuring error.  Grid points come from a
regular slice of the phase space, not from trajectories, so the numbers say
something about generalization rather than memorized paths.
"""

import numpy as np

from .integrators import NonFiniteError, _check_count, _is_int

GRID_POINTS_PER_AXIS = 33


def phase_grid(system, points_per_axis=GRID_POINTS_PER_AXIS, slices=None):
    """Regular grid over one (q, p) plane of the system's sampling box.

    The grid varies the last position coordinate and the last momentum
    coordinate; every other coordinate is held at 0.0 unless `slices` maps
    its index (into the flat [q, p] state) to another value; an index outside
    [0, 2d) or on a grid axis is a ValueError.  Returns (points [P*P, 2d],
    meta dict).
    """
    _check_count("points_per_axis", points_per_axis)
    d = system.dim
    width = 2 * d
    free_q, free_p = d - 1, 2 * d - 1
    slices = dict(slices or {})
    for axis in slices:
        if not (_is_int(axis) and 0 <= axis < width):
            raise ValueError(f"slice axis {axis!r} is outside [0, {width})")
        if axis in (free_q, free_p):
            raise ValueError(f"axis {axis} is a grid axis, not a slice axis")
    q_lo, q_hi = system.bounds[free_q]
    p_lo, p_hi = system.bounds[free_p]
    q_axis = np.linspace(q_lo, q_hi, points_per_axis)
    p_axis = np.linspace(p_lo, p_hi, points_per_axis)
    pts = np.zeros((points_per_axis * points_per_axis, width))
    for axis, value in slices.items():
        pts[:, axis] = value
    qv, pv = np.meshgrid(q_axis, p_axis, indexing="ij")
    pts[:, free_q] = qv.ravel()
    pts[:, free_p] = pv.ravel()
    meta = {
        "points_per_axis": points_per_axis,
        "grid_axes": [free_q, free_p],
        "slices": {int(k): float(v) for k, v in slices.items()},
    }
    return pts, meta


def evaluate_ood(h_fn, dyn_fn, system, points_per_axis=GRID_POINTS_PER_AXIS,
                 slices=None):
    """Compare a learned (value, field) pair to a known system on a grid.

    h_fn maps [N, 2d] -> [N] values; dyn_fn maps [N, 2d] -> [N, 2d] fields.
    Values are aligned by subtracting the mean difference before the error
    norms.  Returns (report, points): report is a flat dict of floats plus
    grid metadata; points holds the per-point arrays the report summarizes,
    keyed pts, h_true, h_pred, h_err_aligned and dyn_l2_err.  A non-finite
    summary (the true system or the model overflowing on the grid) raises
    NonFiniteError naming the first.
    """
    pts, meta = phase_grid(system, points_per_axis, slices)
    h_true = np.asarray(system.hamiltonian(pts), dtype=np.float64)
    h_pred = np.asarray(h_fn(pts), dtype=np.float64)
    offset = float(np.mean(h_pred - h_true))
    aligned = np.abs(h_pred - offset - h_true)
    f_true = np.asarray(system.dynamics(pts), dtype=np.float64)
    f_pred = np.asarray(dyn_fn(pts), dtype=np.float64)
    dyn_err = np.sqrt(np.sum((f_pred - f_true) ** 2, axis=1))
    report = {
        "h_l1_mean": float(np.mean(aligned)),
        "h_l1_max": float(np.max(aligned)),
        "h_l1_mean_raw": float(np.mean(np.abs(h_pred - h_true))),
        "offset": offset,
        "dyn_l2_mean": float(np.mean(dyn_err)),
    }
    for name, value in report.items():
        if not np.isfinite(value):
            raise NonFiniteError(f"non-finite {name} {value!r} on the evaluation grid")
    report.update(n_points=int(pts.shape[0]), **meta)
    points = {"pts": pts, "h_true": h_true, "h_pred": h_pred,
              "h_err_aligned": aligned, "dyn_l2_err": dyn_err}
    return report, points


def energy_drift(h_fn, states):
    """Max |H(y_k) - H(y_0)| over a trajectory's states [n+1, ..., 2d].

    h_fn maps [N, 2d] -> [N] values.  H(y_0) is evaluated as a batch of its
    own, so a one-state trajectory scores 0.0.  A non-finite drift raises
    NonFiniteError.
    """
    h0 = np.asarray(h_fn(np.atleast_2d(states[0])), dtype=np.float64)
    flat = states.reshape(-1, states.shape[-1])
    vals = np.asarray(h_fn(flat), dtype=np.float64).reshape(states.shape[0], -1)
    drift = float(np.max(np.abs(vals - h0[None, :])))
    if not np.isfinite(drift):
        raise NonFiniteError(f"non-finite energy drift {drift!r}")
    return drift
