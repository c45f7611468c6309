"""Symplectic one-step methods built around fixed-point solves.

The workhorse is the implicit midpoint rule

    y' = y + h f((y + y') / 2)

solved by fixed-point iteration.  Inside `integrate` each solve starts from
a polynomial extrapolation of the states already stored: the quartic
`5 y_n - 10 y_{n-1} + 10 y_{n-2} - 5 y_{n-3} + y_{n-4}` (O(h^5)) once four
earlier steps exist, the lower-order rows of SEED_WEIGHTS before that and
`y_n` at the first step.  The seed costs no field evaluation, where an
explicit predictor would cost two to save about two sweeps.  The
midpoint rule is symmetric, second order, and symplectic for arbitrary
smooth Hamiltonians, separable or not, which is why it sits in the training
loop, and the only method with a specialized stepper.  Every other
method is a partitioned Runge-Kutta tableau stepped by the generic stage
solver: the two-stage Gauss collocation pair (order 4) that generates
datasets, the symplectic Euler pair, and the non-symplectic explicit
midpoint (rk2) and explicit Euler baselines.  `check_symplectic_tableau`
verifies the algebraic symplecticity conditions on the coefficients.

Vector fields are plain callables f(y) -> ydot over flat states [..., 2d];
everything here works on a single state [2d] or a batch [B, 2d].  For batched
fixed-point solves, convergence is judged on the max residual across the
whole batch, so all trajectories in a batch see the same iteration count.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(RuntimeError):
    """A solver iterate or state stopped being finite."""


def _is_int(value):
    """An integer that is not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value):
    """An integer or a finite float, not a boolean."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


# ----------------------------------------------------------------------
# tableaux


@dataclass(frozen=True)
class PrkTableau:
    """Coefficient pair for a partitioned Runge-Kutta method.

    The *_q set advances positions, the *_p set momenta; stage values of both
    partitions are evaluated at the same stage points.
    """

    name: str
    a_q: np.ndarray
    b_q: np.ndarray
    a_p: np.ndarray
    b_p: np.ndarray

    def __post_init__(self):
        """Reject coefficients that do not form a finite s-stage pair."""
        coeffs = (self.a_q, self.b_q, self.a_p, self.b_p)
        shapes = [np.shape(c) for c in coeffs]
        s = shapes[1][0] if len(shapes[1]) == 1 else 0
        if s < 1 or shapes != [(s, s), (s,), (s, s), (s,)]:
            raise ValueError(f"tableau {self.name!r} needs a_q and a_p of shape (s, s) and "
                             f"b_q and b_p of length s >= 1, got shapes {shapes}")
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise ValueError(f"tableau {self.name!r} has a non-finite coefficient")

    @property
    def stages(self):
        return len(self.b_q)

    @property
    def c_q(self):
        return self.a_q.sum(axis=1)

    @property
    def c_p(self):
        return self.a_p.sum(axis=1)


def _tab(name, a_q, b_q, a_p=None, b_p=None):
    a_q = np.asarray(a_q, dtype=np.float64)
    b_q = np.asarray(b_q, dtype=np.float64)
    a_p = a_q if a_p is None else np.asarray(a_p, dtype=np.float64)
    b_p = b_q if b_p is None else np.asarray(b_p, dtype=np.float64)
    return PrkTableau(name=name, a_q=a_q, b_q=b_q, a_p=a_p, b_p=b_p)


_SQRT3 = np.sqrt(3.0)

TABLEAUX = {
    "implicit_midpoint": _tab("implicit_midpoint", [[0.5]], [1.0]),
    # positions explicit, momenta implicit: the one-stage symplectic Euler pair
    "symplectic_euler": _tab("symplectic_euler", [[0.0]], [1.0], [[1.0]], [1.0]),
    # two-stage Gauss collocation, order 4
    "gauss2": _tab(
        "gauss2",
        [[0.25, 0.25 - _SQRT3 / 6.0], [0.25 + _SQRT3 / 6.0, 0.25]],
        [0.5, 0.5],
    ),
    # deliberately non-symplectic, kept so rejection paths stay exercised
    "explicit_euler": _tab("explicit_euler", [[0.0]], [1.0]),
    # explicit midpoint: the second-order non-symplectic baseline
    "rk2": _tab("rk2", [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0]),
}


@dataclass(frozen=True)
class TableauReport:
    symplectic: bool
    max_violation: float
    weight_mismatch: float      # max |b_q,i - b_p,i|
    coupling_violation: float   # max |b_q,i a_p,ij + b_p,j a_q,ji - b_q,i b_p,j|
    node_mismatch: float        # max |c_q,i - c_p,i|, informational


def check_symplectic_tableau(tableau, tol=1e-12):
    """Check the algebraic symplecticity conditions of a coefficient pair.

    The verdict rests on equal weights and the stage-coupling identity; those
    two make a partitioned pair symplectic for any autonomous Hamiltonian.
    The node mismatch max|c_q - c_p| is reported alongside because staggered
    pairs (symplectic Euler) legitimately have unequal nodes, so it never
    enters the verdict or the reported violation.
    """
    b_q, b_p = tableau.b_q, tableau.b_p
    weight = float(np.max(np.abs(b_q - b_p)))
    # coupling[i, j] = b_q[i] a_p[i, j] + b_p[j] a_q[j, i] - b_q[i] b_p[j]
    coupling = float(np.max(np.abs(
        b_q[:, None] * tableau.a_p + (b_p[:, None] * tableau.a_q).T
        - b_q[:, None] * b_p[None, :]
    )))
    node = float(np.max(np.abs(tableau.c_q - tableau.c_p)))
    worst = max(weight, coupling)
    return TableauReport(
        symplectic=bool(worst <= tol),
        max_violation=worst,
        weight_mismatch=weight,
        coupling_violation=coupling,
        node_mismatch=node,
    )


# ----------------------------------------------------------------------
# fixed-point configuration and reporting


@dataclass(frozen=True)
class FpiConfig:
    """Controls for the fixed-point corrector.

    tol is on the max-norm change between successive iterates; max_iters
    caps the sweeps of one solve.  A solve starts from the seed its caller
    hands in: `integrate` extrapolates one from its last states.
    """

    tol: float = 1e-10
    max_iters: int = 50

    def __post_init__(self):
        if not (_is_finite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if not (_is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class StepReport:
    iterations: int
    residual: float
    converged: bool
    residuals: tuple = field(default=(), repr=False)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray    # [n+1]
    states: np.ndarray   # [n+1, ..., 2d]

    def __len__(self):
        return len(self.times)


def _report(residuals, converged):
    return StepReport(len(residuals), residuals[-1], converged, tuple(residuals))


def _check_finite(y, context):
    if not np.all(np.isfinite(y)):
        raise NonFiniteError(f"non-finite state during {context}")


def implicit_midpoint_step(f, y, h, cfg=FpiConfig(), start=None):
    """One implicit midpoint step solved by fixed-point iteration.

    start is the first iterate, a guess at y_next shaped like y; None starts
    from y itself.  The seed sets how many sweeps the solve takes; the result
    moves only at the level of cfg.tol.  Returns (y_next, StepReport).
    Non-convergence within max_iters is not fatal: the best iterate is
    returned with converged=False so the caller can count failures and
    decide.  Non-finite iterates raise NonFiniteError: a NaN or inf in an
    iterate makes its residual max|new - cur| NaN or inf, so the residual the
    stopping rule needs is also the finiteness check.
    """
    y = np.asarray(y, dtype=np.float64)
    cur = y if start is None else np.asarray(start, dtype=np.float64)
    if cur.shape != y.shape:
        raise ValueError(f"start shape {cur.shape} does not match state shape {y.shape}")
    residuals = []
    converged = False
    for _ in range(cfg.max_iters):
        new = y + h * f(0.5 * (y + cur))
        resid = float(np.max(np.abs(new - cur)))
        if not math.isfinite(resid):
            raise NonFiniteError("non-finite state during implicit midpoint iteration")
        residuals.append(resid)
        cur = new
        if resid <= cfg.tol:
            converged = True
            break
    return cur, _report(residuals, converged)


def prk_step(f, y, h, tableau, dim, cfg=FpiConfig()):
    """One step of an arbitrary partitioned Runge-Kutta pair.

    Explicit pairs (a_q and a_p both strictly lower triangular) evaluate their
    stages in order, one field evaluation each, and report one iteration.
    Implicit pairs solve the stage slopes of both partitions jointly by
    fixed-point iteration, seeded with the field at the current state; they
    contract at rate O(h).
    """
    y = np.asarray(y, dtype=np.float64)
    s = tableau.stages
    q0, p0 = y[..., :dim], y[..., dim:]

    def stage(i, slopes, known):  # slope of stage i from slopes 0..known-1
        q_i = q0 + h * sum(tableau.a_q[i, j] * slopes[j][..., :dim] for j in range(known))
        p_i = p0 + h * sum(tableau.a_p[i, j] * slopes[j][..., dim:] for j in range(known))
        return f(np.concatenate([q_i, p_i], axis=-1))

    # slopes[i] holds (k_i, l_i) stacked as a full-width field sample
    if not (np.triu(tableau.a_q).any() or np.triu(tableau.a_p).any()):
        slopes = []
        for i in range(s):
            slopes.append(stage(i, slopes, i))
            _check_finite(slopes[i], f"{tableau.name} stage {i}")
        residuals, converged = [0.0], True
    else:
        slopes = np.stack([f(y)] * s, axis=0)
        residuals, converged = [], False
        for _ in range(cfg.max_iters):
            new_slopes = np.stack([stage(i, slopes, s) for i in range(s)], axis=0)
            _check_finite(new_slopes, f"{tableau.name} stage iteration")
            resid = float(np.max(np.abs(new_slopes - slopes)))
            residuals.append(resid)
            slopes = new_slopes
            if resid <= cfg.tol:
                converged = True
                break

    q1 = q0 + h * sum(tableau.b_q[i] * slopes[i][..., :dim] for i in range(s))
    p1 = p0 + h * sum(tableau.b_p[i] * slopes[i][..., dim:] for i in range(s))
    return np.concatenate([q1, p1], axis=-1), _report(residuals, converged)


# ----------------------------------------------------------------------
# trajectory drivers

# Weights on y_n, y_{n-1}, ... of the extrapolated first iterate of step n,
# indexed by how many earlier states exist, capped at four: row k is the
# binomial row (-1)^j C(k+1, j+1), the degree-k polynomial through the last
# k+1 states, so it is exact on any polynomial sequence of degree <= k.  The
# quartic row saves sweeps over the quadratic (27 -> 25 per 6-step window on
# Henon-Heiles and 31 -> 28 on the double well, at trained smoke models).
# Recorded backprop routes the seed's cotangent through the same weights.
SEED_WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
                (5.0, -10.0, 10.0, -5.0, 1.0))


def integrate(f, y0, h, n_steps, method="implicit_midpoint", cfg=FpiConfig(), dim=None):
    """Roll a state forward n_steps of size h; returns (Trajectory, reports).

    method is 'implicit_midpoint' (the specialized fixed-point stepper), any
    other name from the tableau registry ('symplectic_euler', 'gauss2',
    'rk2', 'explicit_euler'), or a PrkTableau instance; the last two kinds go
    through prk_step.  Every method returns one StepReport per step.  h may
    be negative (the symmetric methods are time-reversible).  Each implicit
    midpoint solve is seeded by extrapolating the states stored so far with
    SEED_WEIGHTS; the first step starts from y0.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if h == 0:
        raise ValueError("h must be nonzero")
    y0 = np.asarray(y0, dtype=np.float64)
    _check_finite(y0, "integration start")
    if dim is None:
        dim = y0.shape[-1] // 2
    if y0.shape[-1] != 2 * dim:
        raise ValueError(f"state width {y0.shape[-1]} does not match dim {dim}")

    states = np.empty((n_steps + 1,) + y0.shape)
    states[0] = y0
    reports = []
    if isinstance(method, PrkTableau):
        tableau = method
    elif method in TABLEAUX:
        tableau = None if method == "implicit_midpoint" else TABLEAUX[method]
    else:
        raise ValueError(f"unknown method {method!r}")

    y = y0
    top = len(SEED_WEIGHTS) - 1
    for i in range(n_steps):
        try:
            if tableau is None:
                start = (sum(c * states[i - k] for k, c in enumerate(SEED_WEIGHTS[min(i, top)]))
                         if i else None)
                y, rep = implicit_midpoint_step(f, y, h, cfg, start=start)
            else:
                y, rep = prk_step(f, y, h, tableau, dim, cfg)
                _check_finite(y, f"step {i}")
        except NonFiniteError as err:
            raise NonFiniteError(f"{err} (step {i} of {n_steps}, h={h})") from None
        reports.append(rep)
        states[i + 1] = y

    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=states), reports


# stage tolerance of the reference rollouts (datasets, profile windows)
REFERENCE_FPI = FpiConfig(tol=1e-13, max_iters=100)
