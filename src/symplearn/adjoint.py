"""Gradients of trajectory losses: backward costate solve and recorded backprop.

Two engines compute d(loss)/d(theta) for a loss that compares an implicit
midpoint rollout of the model field against observations at every step.

The costate engine integrates

    dlam/dt = -(df/dy)^T lam

backward through the window with the same implicit midpoint rule used
forward, freezing the state at the stored step endpoints and forming
midpoints by averaging.  Observations contribute jumps: crossing an
observation time going backward adds that time's loss gradient to lam.
With the Hessian frozen at the midpoint each backward step is linear in lam,
so it is solved exactly: the costate sweep has no iteration and no tolerance
of its own.  At dim 1 the 2x2 system is solved in closed form, by Cramer's
rule on the three distinct Hessian entries (_cramer_step), a few vector
operations in place of a batched LAPACK call; wider systems keep one batched
pivoted LU solve, since Cramer's rule is forward stable only for 2x2
systems.  An exactly singular step raises NonFiniteError naming the backward
step.  Each backward step is one fused pass at the midpoint: one network
forward pass and one primal reverse give the closed-form Hessian, and the
parameter term's tangent-over-reverse runs on that tape and the primal
reverse's kept slopes and cotangents.  The
parameter gradient accumulates in place, one quadrature term per step, and
every step writes its tape and primal reverse over the last step's, in the
net's buffer set, so the engine holds one step's pieces at a time and its
footprint does not grow with the window length.  Each engine call prepares
the network once (HamiltonianNet.prepare) for all its passes.

The recorded-backprop engine runs the forward solve through the same
`integrate` call as the costate engine, with a field callback that appends
every network tape to one list in solver order, then walks the whole
computation backward through each fixed-point sweep and extrapolated seed,
popping each sweep's tape and handing it back to the net once reversed.
Its footprint grows linearly with the window length; it exists as the
exactness baseline the costate engine is checked against.  Both engines
add each parameter reverse into their gradient before the next, which
reuses its buffer.  Neither engine keeps memory
accounts; profiling measures both footprints in traced bytes
(symplearn.memory).

Why not fold theta into an augmented state and integrate one big ODE
backward: the augmented system is no longer canonically Hamiltonian, so the
symplectic solver would buy nothing there, and the quadrature view used here
is both cheaper and exact for the discrete map.

The two engines part only by what the forward solve leaves unfinished.
At training's solver stop (TrainConfig().fpi, a change of 1e-4; training
says why it is looser than FpiConfig()) their gradients on trained smoke
models' batches differ by 1.2e-6 to 5.0e-6 of the largest entry, and by
3e-12 to 1.2e-11 at FpiConfig()'s 1e-10.  The midpoint
rule's one-step map has derivative (I - (h/2)Df)^{-1}(I + (h/2)Df); its
transpose is exactly one backward midpoint step of the costate equation at
the same frozen midpoint, and the parameter term lands on the averaged
costate at that midpoint, so the midpoint quadrature is the exact discrete
adjoint (Sanz-Serna, SIAM Review 58(1), 2016).
"""

from dataclasses import dataclass

import numpy as np

from .integrators import FpiConfig, NonFiniteError, _seed_terms, integrate
from .model import costate_to_direction


@dataclass(frozen=True)
class AdjointDiagnostics:
    steps: int
    converged_fraction: float = 1.0   # always: every costate step is an exact solve


def _cramer_step(hess, lam_end, c):
    """lam_mid = (I - a)^{-1} lam_end at dim 1, a = c Hess P, by Cramer's rule.

    With Hess = [[h00, h01], [h01, h11]], a = c [[h01, -h00], [h11, -h01]]
    has zero trace, so (I - a)^{-1} = (I + a) / det with
    det = 1 + c^2 (h00 h11 - h01^2).  Cramer's rule is forward stable for
    2x2 systems (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 1.10.1).  A singular step divides by zero; the result is then
    non-finite, which the caller reports, so no warning is raised here.
    """
    h00, h01, h11 = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    lq, lp = lam_end[:, 0], lam_end[:, 1]
    lam_mid = np.empty_like(lam_end)
    with np.errstate(all="ignore"):
        det = 1.0 + c * c * (h00 * h11 - h01 * h01)
        lam_mid[:, 0] = (lq + c * (h01 * lq - h00 * lp)) / det
        lam_mid[:, 1] = (lp + c * (h11 * lq - h01 * lp)) / det
    return lam_mid


def solve_adjoint_accumulate(net, theta, states, partials, h):
    """Backward costate sweep with in-place gradient accumulation.

    states:   [n+1, B, 2d] forward trajectory at the step endpoints
              (the checkpoints; reused, never copied).
    partials: [n, B, 2d] loss gradients at steps 1..n; zeros where a step
              carries no observation.  partials[n-1] seeds the costate, the
              rest enter as jumps on the way back.
    h:        forward step size (positive).

    Each backward step is one exact linear solve, with no tolerance:
    (I - (h/2) Hess P) lam_mid = lam_end, Hess frozen at the step midpoint
    and P lam = (-lam_p, lam_q), then lam_start = 2 lam_mid - lam_end; by
    Cramer's rule at dim 1, by batched pivoted LU above.  Backward step n
    reverses forward step n (t_n to t_{n+1}); a singular or non-finite step
    raises NonFiniteError naming it.  It makes one network forward pass and
    one primal reverse per backward step: the closed-form Hessian and the
    parameter reverse along P lam_mid share that pass's tape and the
    reverse's slopes and cotangents.

    Returns (grad, diagnostics) with grad flat [n_params].  No batch scaling
    happens here: partials carry whatever scaling the loss used (a batch mean
    hands in partials divided by B), and grad inherits it.  The gradient
    integrand is evaluated at each step midpoint with the midpoint costate,
    which matches recorded backprop up to what the forward solve leaves
    unfinished (see the module docstring for the measured gap).
    """
    states = np.asarray(states, dtype=np.float64)
    partials = np.asarray(partials, dtype=np.float64)
    if states.ndim != 3 or partials.ndim != 3:
        raise ValueError("states must be [n+1, B, 2d] and partials [n, B, 2d]")
    n_steps = states.shape[0] - 1
    if partials.shape != (n_steps,) + states.shape[1:]:
        raise ValueError(
            f"partials shape {partials.shape} does not match states {states.shape}"
        )
    if n_steps < 1:
        raise ValueError("need at least one step")

    d = states.shape[-1] // 2
    c = 0.5 * h
    eye = np.eye(2 * d)
    prep = net.prepare(theta)
    grad = np.zeros(net.n_params)
    lam = np.zeros_like(states[-1])
    for n in range(n_steps - 1, -1, -1):
        lam_end = lam + partials[n]      # observation jump at t_{n+1}
        mid = 0.5 * (states[n] + states[n + 1])
        hess, acts, primal = net._hess_and_tape(prep, mid)
        if d == 1:
            lam_mid = _cramer_step(hess, lam_end, c)
        else:
            try:
                lam_mid = np.linalg.solve(eye + c * costate_to_direction(hess, d),
                                          lam_end[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise NonFiniteError(f"singular costate solve at backward step {n}") from None
        if not np.all(np.isfinite(lam_mid)):
            raise NonFiniteError(f"non-finite costate at backward step {n}")
        # the parameter term, reversed through the same forward tape on the
        # Hessian pass's primal reverse
        _, step_grad = net._tangent_reverse(prep, acts, primal,
                                            costate_to_direction(lam_mid, d), False)
        lam = 2.0 * lam_mid - lam_end
        grad += h * step_grad
    return grad, AdjointDiagnostics(steps=n_steps)


# ----------------------------------------------------------------------
# recorded backprop


@dataclass
class RecordedRollout:
    states: np.ndarray       # [n+1, B, 2d]
    h: float
    tapes: list              # one per fixed-point sweep, in solver order
    reports: list            # one StepReport per step


def record_rollout(net, theta, y0, h, n_steps, cfg=FpiConfig()):
    """Implicit-midpoint rollout through `integrate` that keeps every tape.

    The field callback appends the network activations of each evaluation
    to one list, in solver order: one tape per fixed-point sweep, so step
    n's tapes are the next reports[n].iterations of them.  The retained
    tapes are what makes the later reverse sweep possible, and what makes
    this engine's memory grow with n_steps.
    """
    y0 = np.atleast_2d(np.asarray(y0, dtype=np.float64))
    tapes = []
    states, reports = integrate(net.field(theta, tapes), y0, h, n_steps, cfg=cfg)
    return RecordedRollout(states=states, h=h, tapes=tapes, reports=reports)


def backward_through_record(net, theta, record, partials):
    """Reverse sweep over a recorded rollout; returns the flat theta gradient.

    partials is [n, B, 2d] as in solve_adjoint_accumulate.  The sweeps are
    reversed newest first, each popping its tape off record.tapes and
    handing it back to the net (HamiltonianNet.give_back) once reversed:
    peak memory sits at the end of the forward pass, record.tapes ends
    empty, and the net's next record writes over the tapes.
    Each step's first iterate was extrapolated from the states before it, so
    the cotangent left on that iterate goes back onto those states with the
    weights integrators._seed_terms gave the forward pass.  One zeroed
    [n+1, B, 2d] array carries it to the earlier steps: entry m holds what
    the seeds of later steps owe states[m], and step n adds entry n to the
    cotangent of states[n].  The seeds of steps 1 and 2 also read
    h f(states[0]), the field value of step 0's first sweep, so one more
    buffer, slope, carries their cotangent on that value into the reverse of
    that sweep.  The result is the exact gradient of the computed loss.
    """
    partials = np.asarray(partials, dtype=np.float64)
    n_steps = len(record.reports)
    if partials.shape[0] != n_steps:
        raise ValueError(f"partials cover {partials.shape[0]} steps, record has {n_steps}")
    prep = net.prepare(theta)
    h = record.h
    grad = np.zeros(net.n_params)
    cot = np.zeros_like(record.states[-1])
    owed = np.zeros_like(record.states)
    slope = np.zeros_like(cot)     # the cotangent on f(states[0]) that later seeds owe

    for n in range(n_steps - 1, -1, -1):
        cot = cot + partials[n]
        cot_yn = np.zeros_like(cot)
        weights, slope_weight = _seed_terms(n)
        # iterates, newest first: y_k = y_n + h f((y_n + y_{k-1}) / 2), with
        # y_0 = sum_j weights[j] states[n - j] (+ slope_weight h f(states[0]))
        for k in range(record.reports[n].iterations - 1, -1, -1):
            u = h * cot
            if n == 0 and k == 0:
                u += slope
            acts = record.tapes.pop()
            ybar, thbar = net.field_vjp(prep, acts, u)
            net.give_back(acts)
            grad += thbar
            ybar *= 0.5
            cot += ybar
            cot_yn += cot
            cot = ybar
        if n and slope_weight:
            slope += (slope_weight * h) * cot
        # the seed's cotangent: weights[0] onto states[n], the rest owed further back
        cot_n = cot_yn + owed[n] + weights[0] * cot
        for j in range(1, len(weights)):
            owed[n - j] += weights[j] * cot
        cot = cot_n
    return grad
