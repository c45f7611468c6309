"""Both gradient engines against finite differences and against each other."""

import ast
import gc
import pathlib
import tracemalloc

import numpy as np
import pytest

from oracles import central_diff, fd_jacobian

import symplearn
from symplearn import integrators
from symplearn.adjoint import (backward_through_record, record_rollout,
                               solve_adjoint_accumulate)
from symplearn.integrators import FpiConfig, NonFiniteError, integrate
from symplearn.memory import METER
from symplearn.model import HamiltonianNet
from symplearn.profiling import engine_peak, profile_windows
from symplearn.systems import get_system
from symplearn.training import TrainConfig, _forward_loss, loss_and_grad, window_loss

TIGHT = FpiConfig(tol=1e-12, max_iters=100)


# traced bytes an engine call may leave behind once it has returned or
# raised and its result is gone: interpreter bookkeeping, far below any of
# the buffers the retention tests below hold
SLACK_BYTES = 4096


@pytest.fixture
def traced_bytes():
    """Runs the test under tracemalloc; yields a function that collects
    garbage and reads the bytes traced now."""
    tracemalloc.start()

    def now():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    try:
        yield now
    finally:
        tracemalloc.stop()


def rel(a, b):
    """Max deviation scaled by the larger gradient norm."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def make_windows(net, theta, batch, n_steps, h, seed, noise=0.05):
    """Observations near (not on) a model rollout, time-major [n+1, B, 2d]."""
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(-0.8, 0.8, size=(batch, 2 * net.dim))
    states, _ = integrate(net.field(theta), y0, h, n_steps,
                          cfg=TIGHT)
    # noise drawn in [B, n, 2d] order: the figures quoted in this file rest on it
    states[1:] += noise * rng.standard_normal((batch, n_steps, 2 * net.dim)).swapaxes(0, 1)
    return states


def pipeline_loss(net, theta, windows, h, cfg):
    n_steps = len(windows) - 1
    states, _ = integrate(net.field(theta), windows[0], h,
                          n_steps, cfg=cfg)
    loss, partials = window_loss(states, windows)
    return loss, states, partials


def adjoint_grad(net, theta, windows, h, cfg):
    _, states, partials = pipeline_loss(net, theta, windows, h, cfg)
    grad, _ = solve_adjoint_accumulate(net, theta, states, partials, h)
    return grad


def backprop_grad(net, theta, windows, h, cfg):
    record = record_rollout(net, theta, windows[0], h,
                            len(windows) - 1, cfg=cfg)
    _, partials = window_loss(record.states, windows)
    return backward_through_record(net, theta, record, partials)


# ----------------------------------------------------------------------
# pieces


def test_adjoint_rhs_is_negative_jacobian_transpose():
    # the costate velocity -(df/dy)^T lam, as the reverse through one
    # recorded field evaluation produces it
    net = HamiltonianNet(1, hidden=(6,))
    theta = net.init_params(40)
    layers = net.prepare(theta)
    rng = np.random.default_rng(41)
    for _ in range(5):
        y = rng.uniform(-1, 1, size=2)
        lam = rng.standard_normal(2)
        jac = fd_jacobian(net.field(theta), y, eps=1e-6)
        want = -jac.T @ lam
        acts = net._forward(layers, y[None])
        ybar, _ = net.field_vjp(layers, acts, lam[None])
        assert np.max(np.abs(-ybar[0] - want)) <= 1e-7


def test_record_rollout_reproduces_integrate_exactly():
    net = HamiltonianNet(1, hidden=(8,))
    theta = net.init_params(42)
    rng = np.random.default_rng(43)
    y0 = rng.uniform(-0.5, 0.5, size=(3, 2))
    cfg = FpiConfig(tol=1e-11, max_iters=60)
    states, reports = integrate(net.field(theta), y0, 0.05, 6, cfg=cfg)
    record = record_rollout(net, theta, y0, 0.05, 6, cfg=cfg)
    assert np.array_equal(record.states, states)
    assert [r.iterations for r in record.reports] == \
           [r.iterations for r in reports]


def test_record_keeps_one_tape_per_sweep_and_backward_frees_them(traced_bytes, monkeypatch):
    net = HamiltonianNet(1, hidden=(64,))
    theta = net.init_params(46)
    y0 = np.random.default_rng(47).uniform(-0.5, 0.5, size=(256, 2))
    partials = np.ones((5, 256, 2))
    # a first pass warms the interpreter's caches and checks the order: the
    # reverse pops the tapes newest first, each off the list before its
    # sweep is reversed (ids only, so that no tape is held here)
    warm = record_rollout(net, theta, y0, 0.05, 5)
    order = [id(acts) for acts in warm.tapes]
    popped = []
    field_vjp = net.field_vjp

    def logged(prep, acts, u):
        popped.append((id(acts), len(warm.tapes)))
        return field_vjp(prep, acts, u)

    monkeypatch.setattr(net, "field_vjp", logged)
    backward_through_record(net, theta, warm, partials)
    assert popped == [(order[i], i) for i in reversed(range(len(order)))]
    monkeypatch.undo()
    del warm
    base = traced_bytes()
    record = record_rollout(net, theta, y0, 0.05, 5)
    # every field evaluation is a sweep, and each leaves one tape
    assert len(record.tapes) == sum(r.iterations for r in record.reports)
    tape_bytes = sum(a.nbytes for acts in record.tapes for a in acts[1:])
    held = traced_bytes() - base
    assert held >= tape_bytes + record.states.nbytes
    grad = backward_through_record(net, theta, record, partials)
    del grad
    assert not record.tapes
    assert traced_bytes() - base <= held - tape_bytes + SLACK_BYTES
    del record
    assert traced_bytes() - base <= SLACK_BYTES


# ----------------------------------------------------------------------
# gradient agreement


def test_adjoint_gradient_matches_finite_differences():
    net = HamiltonianNet(1, hidden=(4,))
    theta = net.init_params(44)
    windows = make_windows(net, theta, batch=2, n_steps=4, h=0.05, seed=45)
    grad = adjoint_grad(net, theta, windows, 0.05, TIGHT)

    def loss_of(th):
        return pipeline_loss(net, th, windows, 0.05, TIGHT)[0]

    fd = central_diff(loss_of, theta, eps=1e-5)
    assert rel(grad, fd) <= 1e-6


@pytest.mark.parametrize("n_steps", [1, 4])
def test_adjoint_matches_backprop_to_solver_tolerance(n_steps):
    net = HamiltonianNet(1)            # full default architecture
    theta = net.init_params(46)
    windows = make_windows(net, theta, batch=4, n_steps=n_steps, h=0.01,
                           seed=47)
    g_adj = adjoint_grad(net, theta, windows, 0.01, TIGHT)
    g_bp = backprop_grad(net, theta, windows, 0.01, TIGHT)
    assert rel(g_adj, g_bp) <= 1e-6


def test_engines_agree_under_final_only_observation():
    # zero partials until the window end exercise the jump bookkeeping
    net = HamiltonianNet(1, hidden=(6, 6))
    theta = net.init_params(48)
    windows = make_windows(net, theta, batch=3, n_steps=5, h=0.02, seed=49)
    cfg = TIGHT

    _, states, partials = pipeline_loss(net, theta, windows, 0.02, cfg)
    partials[:-1] = 0.0
    g_adj, _ = solve_adjoint_accumulate(net, theta, states, partials, 0.02)

    record = record_rollout(net, theta, windows[0], 0.02, 5, cfg=cfg)
    g_bp = backward_through_record(net, theta, record, partials)
    assert rel(g_adj, g_bp) <= 1e-6


def test_backprop_is_exact_through_the_extrapolated_seed():
    # at a loose, capped solver the computed loss is far from the converged
    # map's, so only a reverse that also routes each step's leftover
    # first-iterate cotangent back onto the states its seed was extrapolated
    # from matches finite differences of that loss; dropping it reads ~2e-3.
    # Seven steps use the quintic row twice, so cotangents are owed five
    # steps back
    net = HamiltonianNet(1, hidden=(8, 8))
    theta = net.init_params(70)
    h, cfg = 0.1, FpiConfig(tol=1e-3, max_iters=4)
    config = TrainConfig(grad_mode="backprop", fpi=cfg, hidden=(8, 8))
    for n_steps in (5, 7):
        windows = make_windows(net, theta, batch=4, n_steps=n_steps, h=h, seed=71)
        _, grad, _ = loss_and_grad(net, theta, windows, h, config)
        fd = central_diff(lambda th: _forward_loss(net.field(th), windows, h, config), theta,
                          eps=1e-5)
        assert rel(grad, fd) <= 1e-6


def test_backprop_stays_exact_under_a_patched_seed_table(monkeypatch):
    # the reverse must take its seed terms from where integrate takes them:
    # with the binomial table capped at the quartic row and no slope rows
    # patched into integrators, a reverse that kept the shipped table reads
    # 9.0e-6 against central differences of the computed loss, and one that
    # reads the patched table 1.5e-10
    monkeypatch.setattr(integrators, "SEED_WEIGHTS", (
        (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
        (5.0, -10.0, 10.0, -5.0, 1.0)))
    monkeypatch.setattr(integrators, "SEED_SLOPES", ())
    net = HamiltonianNet(1, hidden=(8, 8))
    theta = net.init_params(70)
    h = 0.1
    config = TrainConfig(grad_mode="backprop", fpi=FpiConfig(tol=1e-3, max_iters=4),
                         hidden=(8, 8))
    windows = make_windows(net, theta, batch=4, n_steps=7, h=h, seed=71)
    _, grad, _ = loss_and_grad(net, theta, windows, h, config)
    fd = central_diff(lambda th: _forward_loss(net.field(th), windows, h, config), theta,
                      eps=1e-5)
    assert rel(grad, fd) <= 1e-8


def test_only_integrators_names_the_seed_tables():
    # a second module that read SEED_WEIGHTS or SEED_SLOPES could drift from
    # the forward pass's seed; everything else goes through _seed_terms
    names = {"SEED_WEIGHTS", "SEED_SLOPES"}
    readers = set()
    for path in sorted(pathlib.Path(symplearn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr in names)
                    or (isinstance(node, ast.alias) and node.name in names)):
                readers.add(path.name)
    assert readers == {"integrators.py"}


@pytest.mark.parametrize("dim", [1, 2])
def test_backprop_is_exact_through_the_slope_seeds(dim):
    # a 3-step window seeds steps 1 and 2 with the slope h f(y_0) that step
    # 0's first sweep evaluated.  At a loose, capped solver only a reverse
    # that routes both seeds' cotangent on that slope back into the reverse
    # of step 0's first sweep matches finite differences of the computed
    # loss; dropping it reads 1.9e-4 (dim 1) and 6.6e-4 (dim 2).  The costate
    # engine agrees with it at a tight solver
    net = HamiltonianNet(dim, hidden=(8, 8))
    theta = net.init_params(74)
    h = 0.1
    windows = make_windows(net, theta, batch=4, n_steps=3, h=h, seed=75)
    config = TrainConfig(grad_mode="backprop", fpi=FpiConfig(tol=1e-3, max_iters=4),
                         hidden=(8, 8))
    _, grad, _ = loss_and_grad(net, theta, windows, h, config)
    fd = central_diff(lambda th: _forward_loss(net.field(th), windows, h, config), theta,
                      eps=1e-5)
    assert rel(grad, fd) <= 1e-6
    assert rel(adjoint_grad(net, theta, windows, h, TIGHT),
               backprop_grad(net, theta, windows, h, TIGHT)) <= 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_reused_gradient_buffer_is_never_read_after_the_next_pass(monkeypatch, dim):
    # every parameter reverse of an engine call writes into the buffer set's
    # one gradient buffer; both engines must give, bit for bit, the gradient
    # they give when each of those passes writes into a fresh buffer set of
    # its own
    net = HamiltonianNet(dim, hidden=(6, 5))
    theta = net.init_params(76)
    h = 0.05
    windows = make_windows(net, theta, batch=8, n_steps=7, h=h, seed=77)
    want = [adjoint_grad(net, theta, windows, h, TIGHT),
            backprop_grad(net, theta, windows, h, TIGHT)]
    shared = HamiltonianNet._tangent_reverse

    def own_buffer(self, *args):
        kept, self._bufs = self._bufs, None
        try:
            return shared(self, *args)
        finally:
            self._bufs = kept

    monkeypatch.setattr(HamiltonianNet, "_tangent_reverse", own_buffer)
    got = [adjoint_grad(net, theta, windows, h, TIGHT),
           backprop_grad(net, theta, windows, h, TIGHT)]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 6])
def test_engines_agree_on_every_seed_branch(n_steps):
    # windows of 1 to 6 steps end on the y_n seed, the two slope rows and
    # the cubic, quartic and quintic rows
    net = HamiltonianNet(1, hidden=(6, 6))
    theta = net.init_params(72)
    windows = make_windows(net, theta, batch=4, n_steps=n_steps, h=0.05, seed=73)
    g_adj = adjoint_grad(net, theta, windows, 0.05, TIGHT)
    g_bp = backprop_grad(net, theta, windows, 0.05, TIGHT)
    assert rel(g_adj, g_bp) <= 1e-6


@pytest.mark.parametrize("name", ["double_well", "henon_heiles"])
def test_engines_agree_at_the_training_tolerance(name):
    # at TrainConfig's looser solver stop the engines part by what the
    # unfinished solve leaves, held to 1e-3 of that stop: on these
    # training-shaped windows (6 steps of h = 0.025, noise 0.01) the gap is
    # 6.5e-9 to 4.9e-8 of the largest entry at the default of 1e-4, and
    # 1.7e-6 to 4.6e-6 on the trained smoke models' batches, where the
    # field is stronger (see the training tests for that regime)
    system = get_system(name)
    net = HamiltonianNet(system.dim)
    worst = 0.0
    for seed in range(4):
        theta = net.init_params(seed)
        windows = profile_windows(system, 64, 6, 0.025, seed)
        noise = np.random.default_rng(seed).standard_normal((64, 6, system.width))
        windows[1:] += 0.01 * noise.swapaxes(0, 1)   # the gaps above were measured on this draw
        g_adj, g_bp = (loss_and_grad(net, theta, windows, 0.025, TrainConfig(grad_mode=mode))[1]
                       for mode in ("adjoint", "backprop"))
        worst = max(worst, rel(g_adj, g_bp))
    assert worst <= 1e-3 * TrainConfig().fpi.tol


def test_gradient_scales_linearly_with_partials():
    net = HamiltonianNet(1, hidden=(5,))
    theta = net.init_params(50)
    windows = make_windows(net, theta, batch=2, n_steps=3, h=0.05, seed=51)
    _, states, partials = pipeline_loss(net, theta, windows, 0.05, TIGHT)
    g1, _ = solve_adjoint_accumulate(net, theta, states, partials, 0.05)
    g3, _ = solve_adjoint_accumulate(net, theta, states, 3.0 * partials, 0.05)
    assert rel(3.0 * g1, g3) <= 1e-10


def test_gradient_adds_over_the_batch():
    net = HamiltonianNet(1, hidden=(5,))
    theta = net.init_params(52)
    windows = make_windows(net, theta, batch=3, n_steps=3, h=0.05, seed=53)
    _, states, partials = pipeline_loss(net, theta, windows, 0.05, TIGHT)
    # undo the 1/B mean scale so single-row gradients add up exactly
    partials = partials * windows.shape[1]
    whole, _ = solve_adjoint_accumulate(net, theta, states, partials, 0.05)
    parts = np.zeros_like(whole)
    for i in range(3):
        gi, _ = solve_adjoint_accumulate(net, theta, states[:, i:i + 1],
                                         partials[:, i:i + 1], 0.05)
        parts += gi
    assert rel(whole, parts) <= 1e-11


def test_costate_step_is_exact_beyond_the_contraction_limit():
    # an untrained net with its initial weights scaled up, stepped at h = 3:
    # h/2 * rho(Df) is well above 1, where iterating the costate step
    # diverges; the exact step solves (I - h/2 Df)^T mu = lam_1 at the frozen
    # midpoint and lands the parameter term on mu
    net = HamiltonianNet(1, hidden=(8,))
    theta = 4.0 * net.init_params(64)
    h = 3.0
    rng = np.random.default_rng(65)
    states = rng.uniform(-0.8, 0.8, size=(2, 4, 2))
    partials = rng.standard_normal((1, 4, 2))
    mid = 0.5 * (states[0] + states[1])
    layers = net.prepare(theta)
    want = np.zeros(net.n_params)
    rho = 0.0
    for b in range(4):
        jac = fd_jacobian(net.field(theta), mid[b])
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(jac)))))
        mu = np.linalg.solve((np.eye(2) - 0.5 * h * jac).T, partials[0, b])
        acts = net._forward(layers, mid[b:b + 1])
        want += h * net.field_vjp(layers, acts, mu[None])[1]
    assert 0.5 * h * rho > 2.0
    grad, _ = solve_adjoint_accumulate(net, theta, states, partials, h)
    assert rel(grad, want) <= 1e-6


def lu_sweep(net, theta, states, partials, h):
    """The costate sweep with every backward step solved by np.linalg.solve
    (pivoted LU) on I - (h/2) Hess P, on the package's Hessian pass and
    parameter reverse."""
    d = net.dim
    prep = net.prepare(theta)
    grad = np.zeros(net.n_params)
    lam = np.zeros_like(states[-1])
    for n in range(len(partials) - 1, -1, -1):
        lam_end = lam + partials[n]
        hess, acts, primal = net._hess_and_tape(prep, 0.5 * (states[n] + states[n + 1]))
        a = 0.5 * h * np.concatenate([hess[..., d:], -hess[..., :d]], axis=-1)
        lam_mid = np.linalg.solve(np.eye(2 * d) - a, lam_end[..., None])[..., 0]
        w_dir = np.concatenate([-lam_mid[:, d:], lam_mid[:, :d]], axis=1)
        grad += h * net._tangent_reverse(prep, acts, primal, w_dir, False)[1]
        lam = 2.0 * lam_mid - lam_end
    return grad


@pytest.mark.parametrize("scale, h", [(1.0, 0.05), (3.0, 0.05), (3.0, 1.0)])
def test_dim_one_cramer_step_matches_the_lu_solve(monkeypatch, scale, h):
    # the closed-form step against a pivoted LU solve on random batches, at
    # the initial weights and at 3x their scale; np.linalg.solve then raises,
    # so a sweep that fell back to it at dim 1 would fail here
    net = HamiltonianNet(1)
    theta = scale * net.init_params(70)
    rng = np.random.default_rng(71)
    for batch in (1, 64, 512):
        states = rng.uniform(-0.8, 0.8, size=(5, batch, 2))
        partials = rng.standard_normal((4, batch, 2))
        want = lu_sweep(net, theta, states, partials, h)
        with monkeypatch.context() as patch:
            def no_solve(*args, **kwargs):
                raise AssertionError("np.linalg.solve called at dim 1")
            patch.setattr(np.linalg, "solve", no_solve)
            grad, _ = solve_adjoint_accumulate(net, theta, states, partials, h)
        assert rel(grad, want) <= 1e-13


def test_dim_two_costate_step_is_the_lu_solve_bit_for_bit():
    net = HamiltonianNet(2)
    theta = 3.0 * net.init_params(72)
    rng = np.random.default_rng(73)
    states = rng.uniform(-0.8, 0.8, size=(5, 64, 4))
    partials = rng.standard_normal((4, 64, 4))
    grad, _ = solve_adjoint_accumulate(net, theta, states, partials, 0.05)
    assert np.array_equal(grad, lu_sweep(net, theta, states, partials, 0.05))


@pytest.mark.parametrize("dim", [1, 2])
def test_singular_costate_step_raises_non_finite_error(monkeypatch, dim):
    # Hess = diag(4, -4) per (q, p) pair at h = 0.5 makes I - (h/2) Hess P
    # exactly singular: LU meets a zero pivot at dim 2 and Cramer's rule
    # divides by zero at dim 1; either way the sweep names the backward step
    # and leaks no warning (which pytest would turn into an error)
    hess_and_tape = HamiltonianNet._hess_and_tape

    def singular(self, prep, y):
        _, acts, primal = hess_and_tape(self, prep, y)
        return np.broadcast_to(np.diag([4.0] * dim + [-4.0] * dim),
                               (len(y), 2 * dim, 2 * dim)), acts, primal

    monkeypatch.setattr(HamiltonianNet, "_hess_and_tape", singular)
    net = HamiltonianNet(dim, hidden=(5,))
    theta = net.init_params(74)
    rng = np.random.default_rng(75)
    states = rng.uniform(-0.8, 0.8, size=(4, 8, 2 * dim))
    partials = rng.standard_normal((3, 8, 2 * dim))
    with pytest.raises(NonFiniteError, match="backward step 2"):
        solve_adjoint_accumulate(net, theta, states, partials, 0.5)


# ----------------------------------------------------------------------
# memory behavior


def test_costate_memory_does_not_grow_with_window_length():
    net = HamiltonianNet(1)
    theta = net.init_params(56)

    def peak(n_steps):
        windows = make_windows(net, theta, batch=32, n_steps=n_steps, h=0.01,
                               seed=57)
        _, states, partials = pipeline_loss(net, theta, windows, 0.01, TIGHT)
        with METER.measure() as meter:
            solve_adjoint_accumulate(net, theta, states, partials, 0.01)
            return meter.peak_bytes

    assert peak(16) <= 1.05 * peak(4)


def test_costate_step_frees_its_pieces_before_the_next():
    # one backward step's tape and primal reverse set the costate peak; a
    # second step must write over the first's pieces, not hold them beside
    # its own
    system = get_system("coupled_ho")
    net = HamiltonianNet(1)
    theta = net.init_params(0)
    config = TrainConfig(epochs=1)

    def peak(n_steps):
        windows = profile_windows(system, 512, n_steps, 0.01, 0)
        return engine_peak(net, theta, windows, 0.01, config)

    assert peak(2) <= 1.05 * peak(1)


def test_backprop_memory_grows_with_window_length():
    # every step keeps at least one tape (one [B, sum of hidden] stack), so
    # twelve more steps hold at least twelve more tapes at the peak; with
    # the quartic seed each step after the fourth converges here in exactly
    # one sweep, and the growth is exactly that
    net = HamiltonianNet(1)
    theta = net.init_params(58)
    batch = 32
    tape_bytes = batch * sum(net.arch[1:-1]) * 8

    def peak(n_steps):
        windows = make_windows(net, theta, batch=batch, n_steps=n_steps, h=0.01,
                               seed=59)
        with METER.measure() as meter:
            backprop_grad(net, theta, windows, 0.01, TIGHT)
            return meter.peak_bytes

    assert peak(16) - peak(4) >= 12 * tape_bytes


def test_blown_up_rollout_releases_all_tapes(traced_bytes):
    # the first field evaluation is NaN: its tape, [256, 64], is held when
    # the solver raises, and must go with the exception
    net = HamiltonianNet(1, hidden=(64,))
    theta = net.init_params(60)
    theta[0] = np.nan
    y0 = np.zeros((256, 2))
    for _ in range(2):           # the first pass warms the interpreter's caches
        base = traced_bytes()
        with pytest.raises(NonFiniteError):
            record_rollout(net, theta, y0, 0.05, 4, cfg=TIGHT)
    assert traced_bytes() - base <= SLACK_BYTES


@pytest.mark.parametrize("dim", [1, 2])
def test_costate_step_takes_one_forward_pass_and_no_field_evaluation(monkeypatch, dim):
    # each backward step runs one network forward pass and one primal
    # reverse, both shared by the closed-form Hessian and the parameter term
    # (no field_vjp, which would reverse the primal again), and never
    # evaluates the vector field itself
    calls = {"_forward": 0, "_reverse_input": 0, "_primal_reverse": 0, "field_vjp": 0}
    for name in calls:
        original = getattr(HamiltonianNet, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(HamiltonianNet, name, counted)
    net = HamiltonianNet(dim)
    theta = net.init_params(63)
    rng = np.random.default_rng(64)
    n_steps = 5
    states = rng.uniform(-0.8, 0.8, size=(n_steps + 1, 16, 2 * dim))
    partials = rng.standard_normal((n_steps, 16, 2 * dim))
    solve_adjoint_accumulate(net, theta, states, partials, 0.05)
    assert calls == {"_forward": n_steps, "_reverse_input": 0, "_primal_reverse": n_steps,
                     "field_vjp": 0}


def test_nonfinite_costate_releases_tracked_buffers(traced_bytes):
    # the first backward step's costate is NaN: its Hessian, its tape and
    # its primal reverse ([256, 64] per layer piece) are held when the sweep
    # raises, and must go with the exception
    net = HamiltonianNet(1, hidden=(64,))
    theta = net.init_params(61)
    states = np.zeros((3, 256, 2))
    partials = np.full((2, 256, 2), np.nan)
    for _ in range(2):           # the first pass warms the interpreter's caches
        base = traced_bytes()
        with pytest.raises(NonFiniteError):
            solve_adjoint_accumulate(net, theta, states, partials, 0.05)
    assert traced_bytes() - base <= SLACK_BYTES


def test_meter_sees_a_buffer_no_engine_code_mentions(monkeypatch):
    # a Hessian pass that also stashes one [B, 64] array per backward step:
    # nothing registers it, and the costate sweep's measured peak must still
    # rise by every stashed byte (up to the slack: the clean sweep's peak
    # need not fall in its last step, where all the stashed arrays are held)
    net = HamiltonianNet(1)
    theta = net.init_params(65)
    rng = np.random.default_rng(66)
    n_steps, batch = 8, 64
    states = rng.uniform(-0.8, 0.8, size=(n_steps + 1, batch, 2))
    partials = rng.standard_normal((n_steps, batch, 2))

    def peak():
        with METER.measure() as block:
            solve_adjoint_accumulate(net, theta, states, partials, 0.05)
        return block.peak_bytes

    peak()                       # makes the net's buffer set, which both peaks then share

    clean = peak()
    stash = []
    hess_and_tape = HamiltonianNet._hess_and_tape

    def stashing(self, prep, y):
        stash.append(np.ones((len(y), 64)))
        return hess_and_tape(self, prep, y)

    monkeypatch.setattr(HamiltonianNet, "_hess_and_tape", stashing)
    assert peak() - clean >= n_steps * batch * 64 * 8 - SLACK_BYTES
    assert len(stash) == n_steps


# ----------------------------------------------------------------------
# argument validation


def test_shape_validation():
    net = HamiltonianNet(1, hidden=(4,))
    theta = net.init_params(62)
    states = np.zeros((4, 2, 2))
    partials = np.zeros((3, 2, 2))
    with pytest.raises(ValueError):
        solve_adjoint_accumulate(net, theta, states[:, 0], partials, 0.1)
    with pytest.raises(ValueError):
        solve_adjoint_accumulate(net, theta, states, partials[:2], 0.1)
    with pytest.raises(ValueError, match="need at least one step"):
        solve_adjoint_accumulate(net, theta, states[:1], partials[:0], 0.1)
    record = record_rollout(net, theta, np.zeros((2, 2)), 0.1, 3)
    with pytest.raises(ValueError):
        backward_through_record(net, theta, record, partials[:2])
