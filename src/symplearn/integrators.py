"""Symplectic one-step methods built around fixed-point solves.

The workhorse is the implicit midpoint rule

    y' = y + h f((y + y') / 2)

solved by fixed-point iteration.  Inside `integrate` each solve starts from
an extrapolation of the states already stored, up to the quintic row of
SEED_WEIGHTS, helped at steps 1 and 2 by the slope h f(y_0) that step 0's
first sweep has already evaluated.  The seed costs no field evaluation,
where an explicit predictor would cost two to save about two sweeps.  The
midpoint rule is symmetric, second order, and symplectic for arbitrary
smooth Hamiltonians, separable or not, which is why it sits in the training
loop.  Every other method is a partitioned Runge-Kutta tableau: the
two-stage Gauss collocation pair (order 4) that generates datasets, the
symplectic Euler pair, and the non-symplectic explicit midpoint (rk2) and
explicit Euler baselines.  One fixed-point loop, `_fixed_point`, solves the
midpoint step and the stages of the implicit tableaux alike.
`check_symplectic_tableau` verifies the algebraic symplecticity conditions
on the coefficients.

Vector fields are plain callables f(y) -> ydot over flat states [..., 2d];
everything here works on a single state [2d] or a batch [B, 2d].  For batched
fixed-point solves, convergence is judged on the max residual across the
whole batch, so all trajectories in a batch see the same iteration count.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


class NonFiniteError(RuntimeError):
    """A solve failed: an iterate or state stopped being finite, a linear
    solve was singular, or a fixed-point solve stopped at max_iters short of
    its tolerance."""


def _is_int(value):
    """An integer that is not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name, value, low=1):
    """Raise ValueError naming name unless value is an integer >= low."""
    if not (_is_int(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


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
        """Hold the coefficients as float64 arrays; reject any that do not
        form a finite s-stage pair."""
        for field in ("a_q", "b_q", "a_p", "b_p"):
            try:
                object.__setattr__(self, field, np.asarray(getattr(self, field), np.float64))
            except (TypeError, ValueError, OverflowError) as err:
                raise ValueError(f"tableau {self.name!r} {field} is not an array of "
                                 f"numbers: {err}") from None
        coeffs = (self.a_q, self.b_q, self.a_p, self.b_p)
        shapes = [np.shape(c) for c in coeffs]
        s = shapes[1][0] if len(shapes[1]) == 1 else 0
        if s < 1 or shapes != [(s, s), (s,), (s, s), (s,)]:
            raise ValueError(f"tableau {self.name!r} needs a_q and a_p of shape (s, s) and "
                             f"b_q and b_p of length s >= 1, got shapes {shapes}")
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise ValueError(f"tableau {self.name!r} has a non-finite coefficient")
        # settled once per tableau for prk_step: whether any stage reads its
        # own or a later slope, and the coefficients shaped to scale slopes
        # stacked as [s, B, 2, d].  The pair axis holds the position and the
        # momentum coefficient, or one shared entry when the partitions agree,
        # so that the product runs over whole contiguous rows
        def pair(x_q, x_p):
            return x_q[..., None] if np.array_equal(x_q, x_p) else np.stack([x_q, x_p], -1)

        object.__setattr__(self, "_implicit",
                           bool(np.triu(self.a_q).any() or np.triu(self.a_p).any()))
        object.__setattr__(self, "_a_pair", pair(self.a_q, self.a_p)[:, :, None, :, None])
        object.__setattr__(self, "_b_pair", pair(self.b_q, self.b_p)[None, :, None, :, None])

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
    """A registry pair; without a_p and b_p both partitions share one array."""
    a_q, b_q = np.asarray(a_q, np.float64), np.asarray(b_q, np.float64)
    return PrkTableau(name, a_q, b_q, a_q if a_p is None else a_p, b_q if b_p is None else b_p)


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
    enters the verdict or the reported violation.  tol must be >= 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
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
        _check_count("max_iters", self.max_iters)


@dataclass(frozen=True)
class StepReport:
    residuals: tuple    # max-norm change of each sweep, oldest first
    converged: bool

    @property
    def iterations(self):
        return len(self.residuals)


def _check_finite(y, context):
    if not np.all(np.isfinite(y)):
        raise NonFiniteError(f"non-finite state during {context}")


def _fixed_point(update, x, cfg, context):
    """Iterate x <- update(x) until the max-norm change is at most cfg.tol,
    or for cfg.max_iters sweeps; returns (x, StepReport).  Non-convergence
    does not raise here: the last iterate comes back with converged=False,
    and `integrate` rejects it.  A non-finite iterate raises
    NonFiniteError naming context: a NaN or inf makes the change
    max|new - x| NaN or inf, so the stopping rule's residual is also the
    finiteness check.
    """
    residuals = []
    for _ in range(cfg.max_iters):
        new = update(x)
        resid = float(np.max(np.abs(new - x)))
        if not math.isfinite(resid):
            raise NonFiniteError(f"non-finite state during {context}")
        residuals.append(resid)
        x = new
        if resid <= cfg.tol:
            break
    return x, StepReport(tuple(residuals), resid <= cfg.tol)


def implicit_midpoint_step(f, y, h, cfg=FpiConfig(), start=None):
    """One implicit midpoint step solved by fixed-point iteration.

    start is the first iterate, a guess at y_next shaped like y; None starts
    from y itself.  The seed sets how many sweeps the solve takes; the result
    moves only at the level of cfg.tol.  Returns (y_next, StepReport) from
    _fixed_point.
    """
    y = np.asarray(y, dtype=np.float64)
    cur = y if start is None else np.asarray(start, dtype=np.float64)
    if cur.shape != y.shape:
        raise ValueError(f"start shape {cur.shape} does not match state shape {y.shape}")
    return _fixed_point(lambda x: y + h * f(0.5 * (y + x)), cur, cfg,
                        "implicit midpoint iteration")


def _combine(y, h, coeffs, slopes, out):
    """out[i] = y + h * sum_j coeffs[i, j] * slopes[j] for every row i at once.

    y is [B, 2, d], slopes [k, B, 2, d], coeffs [r, k, 1, 2 or 1, 1] (a row
    per point; see PrkTableau's pair axis), out [r, B, 2, d].  The sum runs
    left to right over j, as a per-stage loop would take it.
    """
    terms = coeffs * slopes
    acc = terms[:, 0]
    for j in range(1, slopes.shape[0]):
        acc += terms[:, j]
    acc *= h
    np.add(y, acc, out=out)


def prk_step(f, y, h, tableau, cfg=FpiConfig()):
    """One step of an arbitrary partitioned Runge-Kutta pair.

    Explicit pairs (a_q and a_p both strictly lower triangular) evaluate their
    stages in order, one field evaluation each, and report one iteration.
    Implicit pairs solve the stage slopes of both partitions jointly by
    _fixed_point, seeded with the field at the current state; they contract
    at rate O(h).  Each sweep forms all s stage points at once and makes one
    field call on them, so the field sees an [s*B, 2d] batch ([s, 2d] for a
    single state [2d]).
    """
    y = np.asarray(y, dtype=np.float64)
    s = tableau.stages
    rows = y.reshape(-1, 2, y.shape[-1] // 2)                  # [B, 2, d]
    shape = (s,) + rows.shape                                  # stage points and slopes

    if not tableau._implicit:
        points, slopes = np.empty(shape), np.empty(shape)
        points[0] = rows
        for i in range(s):
            if i:
                _combine(rows, h, tableau._a_pair[i:i + 1, :i], slopes[:i], points[i:i + 1])
            slopes[i] = f(points[i].reshape(y.shape)).reshape(rows.shape)
            _check_finite(slopes[i], f"{tableau.name} stage {i}")
        report = StepReport((0.0,), True)
    else:
        def sweep(slopes):   # fresh points each sweep: a field may keep its input
            points = np.empty(shape)
            _combine(rows, h, tableau._a_pair, slopes, points)
            return f(points.reshape(-1, y.shape[-1])).reshape(shape)

        seed = np.empty(shape)
        seed[:] = f(y).reshape(rows.shape)
        slopes, report = _fixed_point(sweep, seed, cfg, f"{tableau.name} stage iteration")

    out = np.empty_like(rows)
    _combine(rows, h, tableau._b_pair, slopes, out[None])
    return out.reshape(y.shape), report


# ----------------------------------------------------------------------
# trajectory drivers

# Weights on y_n, y_{n-1}, ... of the extrapolated first iterate of step n,
# indexed by how many earlier states exist, capped at five (Hairer, Lubich &
# Wanner, Geometric Numerical Integration, VIII.6).  Rows 1 and 2 add
# SEED_SLOPES[n] h f(y_0), the field value step 0's first sweep takes at
# (y_0 + y_0) / 2 = y_0 exactly, and are exact on polynomials of degree 2
# and 3; rows 3 to 5 are the binomial rows (-1)^j C(k+1, j+1), exact on
# degree k.  Against the binomial rows capped at the quartic they take 28 ->
# 25 sweeps per 6-step window on the double well and 25 -> 23 on
# Henon-Heiles, at trained smoke models.  `integrate` and recorded
# backprop's reverse both read the tables only through _seed_terms.
SEED_WEIGHTS = ((1.0,), (4.0, -3.0), (4.5, -9.0, 5.5), (4.0, -6.0, 4.0, -1.0),
                (5.0, -10.0, 10.0, -5.0, 1.0), (6.0, -15.0, 20.0, -15.0, 6.0, -1.0))
SEED_SLOPES = (0.0, -2.0, 3.0)


def _seed_terms(i):
    """Step i's seed terms: its SEED_WEIGHTS row, on states[i], states[i-1],
    ..., and its SEED_SLOPES weight on h f(states[0]), 0.0 past the table."""
    return (SEED_WEIGHTS[min(i, len(SEED_WEIGHTS) - 1)],
            SEED_SLOPES[i] if i < len(SEED_SLOPES) else 0.0)


def integrate(f, y0, h, n_steps, method="implicit_midpoint", cfg=FpiConfig()):
    """Roll a state forward n_steps of size h; returns (states, reports).

    states is [n_steps + 1, *y0.shape], y0 first, and state k sits at time
    k * h; reports holds one StepReport per step, whatever the method.

    method is a name from the tableau registry: 'implicit_midpoint' runs the
    specialized fixed-point stepper, the others ('symplectic_euler',
    'gauss2', 'rk2', 'explicit_euler') go through prk_step.  h may be
    negative (the symmetric methods are time-reversible).  Each implicit
    midpoint solve is seeded by extrapolating the states stored so far with
    SEED_WEIGHTS, plus SEED_SLOPES times the first field value of step 0,
    h f(y0), at steps 1 and 2; the first step starts from y0.

    Every rollout in the package goes through here, and the costate sweep
    is the exact adjoint of the rollout only where each step was solved, so
    a solve that stops at cfg.max_iters short of cfg.tol raises
    NonFiniteError naming the step, as a non-finite state does.
    """
    _check_count("n_steps", n_steps)
    if h == 0:
        raise ValueError("h must be nonzero")
    y0 = np.asarray(y0, dtype=np.float64)
    _check_finite(y0, "integration start")
    if y0.shape[-1] % 2:
        raise ValueError(f"state width {y0.shape[-1]} is odd: a state is (q, p)")

    states = np.empty((n_steps + 1,) + y0.shape)
    states[0] = y0
    reports = []
    if method not in TABLEAUX:
        raise ValueError(f"unknown method {method!r}")
    tableau = None if method == "implicit_midpoint" else TABLEAUX[method]

    y = y0
    slope = []           # h f(y_0), kept from step 0's first sweep

    def first_sweep(x):  # step 0's field, evaluated first at (y_0 + y_0) / 2 = y_0
        value = f(x)
        if not slope:
            slope.append(h * value)
        return value

    for i in range(n_steps):
        try:
            if tableau is None:
                if i:
                    weights, slope_weight = _seed_terms(i)
                    start = sum(c * states[i - k] for k, c in enumerate(weights))
                    if slope_weight:
                        start += slope_weight * slope[0]
                    y, rep = implicit_midpoint_step(f, y, h, cfg, start=start)
                else:
                    y, rep = implicit_midpoint_step(first_sweep, y, h, cfg)
            else:
                y, rep = prk_step(f, y, h, tableau, cfg)
                _check_finite(y, f"step {i}")
        except NonFiniteError as err:
            raise NonFiniteError(f"{err} (step {i} of {n_steps}, h={h})") from None
        if not rep.converged:
            raise NonFiniteError(f"step {i} did not converge in {rep.iterations} sweeps "
                                 f"(last residual {rep.residuals[-1]:.3e})")
        reports.append(rep)
        states[i + 1] = y
    return states, reports


# stage tolerance of the reference rollouts (datasets, profile windows)
REFERENCE_FPI = FpiConfig(tol=1e-13, max_iters=100)
