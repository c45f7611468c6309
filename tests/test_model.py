"""The network engine against naive re-implementations and finite differences."""

import gc
import weakref

import numpy as np
import pytest

from oracles import (batch_major_hessian, broadcasting_field, broadcasting_forward,
                     canonical_rotation, central_diff, fd_hessian, naive_h,
                     naive_tangent_reverse)

from symplearn.model import (HamiltonianNet, costate_to_direction,
                             load_checkpoint, param_count, save_checkpoint)


def test_param_count_default_arch():
    # hand count for (2, 16, 32, 16, 1):
    # 2*16+16 + 16*32+32 + 32*16+16 + 16*1+1 = 48 + 544 + 528 + 17
    assert param_count((2, 16, 32, 16, 1)) == 1137
    # the default (2, 16, 16, 16, 1): 48 + 272 + 272 + 17
    assert HamiltonianNet(1).n_params == 609
    assert param_count((2, 1)) == 3


def test_value_matches_naive_reference():
    rng = np.random.default_rng(10)
    for dim, hidden in ((1, (16, 32, 16)), (2, (5, 3))):
        net = HamiltonianNet(dim, hidden=hidden)
        theta = rng.standard_normal(net.n_params)
        for _ in range(5):
            point = rng.uniform(-1.5, 1.5, size=2 * dim)
            got = net.eval_h(theta, point)
            want = naive_h(theta, net.arch, point)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_single_point_and_batch_agree():
    # not bitwise: BLAS may pick different kernels for 1-row and 7-row
    # products, so only near-equality is promised across batch shapes
    net = HamiltonianNet(1)
    theta = net.init_params(3)
    rng = np.random.default_rng(11)
    batch = rng.uniform(-1, 1, size=(7, 2))
    vals = net.eval_h(theta, batch)
    field = net.field(theta)
    fields = field(batch)
    for i in range(7):
        assert abs(net.eval_h(theta, batch[i]) - vals[i]) <= 1e-13
        assert np.max(np.abs(field(batch[i]) - fields[i])) <= 1e-13


def test_init_params_bounds_and_determinism():
    net = HamiltonianNet(2, hidden=(8, 8))
    a = net.init_params(42)
    b = net.init_params(42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, net.init_params(43))
    for (w, bias), n_in in zip(net.unpack(a), net.arch[:-1]):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(n_in))
        assert np.all(bias == 0.0)


def fd_field(net, theta, point):
    """The canonical field at one point, rotated from central differences of H."""
    return canonical_rotation(central_diff(lambda x: net.eval_h(theta, x), point, eps=1e-6))


def test_grad_state_matches_finite_differences():
    net = HamiltonianNet(1)
    theta = net.init_params(1)
    rng = np.random.default_rng(12)
    for _ in range(10):
        point = rng.uniform(-1.5, 1.5, size=2)
        want = fd_field(net, theta, point)
        got = net.field(theta)(point)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-8 * scale


def test_dynamics_rearranges_the_gradient():
    # at dim 2 the field is (dH/dp1, dH/dp2, -dH/dq1, -dH/dq2), each half
    # in coordinate order
    net = HamiltonianNet(2, hidden=(6,))
    theta = net.init_params(5)
    rng = np.random.default_rng(13)
    y = rng.uniform(-1, 1, size=(4, 4))
    f = net.field(theta)(y)
    for point, got in zip(y, f):
        want = fd_field(net, theta, point)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-8 * scale


def hessian(net, theta, y):
    """d2H/dy2 [B, 2d, 2d] at the batch y, from the costate step's closed form."""
    return net._hess_and_tape(net.prepare(theta), y)[0]


def test_hessian_matches_finite_differences_and_is_symmetric():
    net = HamiltonianNet(1, hidden=(8, 8))
    theta = net.init_params(2)
    rng = np.random.default_rng(14)
    for _ in range(5):
        point = rng.uniform(-1, 1, size=2)
        got = hessian(net, theta, point[None])[0]
        want = fd_hessian(lambda x: net.eval_h(theta, x), point, eps=1e-4)
        assert np.max(np.abs(got - want)) <= 1e-5
        assert np.max(np.abs(got - got.T)) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(1,), (5,), (8, 8), (16, 32, 16)])
def test_hessian_matches_the_batch_major_contraction(hidden, dim):
    # one tangent per input direction, the upper triangle mirrored, at
    # widths 2, 4 and 6, against the reference contraction, at the initial
    # weights and at 3x their scale, and exactly symmetric
    net = HamiltonianNet(dim, hidden=hidden)
    rng = np.random.default_rng(15)
    for scale in (1.0, 3.0):
        theta = scale * net.init_params(3)
        for batch in (1, 64, 512):
            y = rng.uniform(-1, 1, size=(batch, 2 * dim))
            got = hessian(net, theta, y)
            want = batch_major_hessian(theta, net.arch, y)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
            assert np.array_equal(got, got.transpose(0, 2, 1))


def test_costate_to_direction_layout():
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(costate_to_direction(lam, 2), [-3.0, -4.0, 1.0, 2.0])
    batch = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(costate_to_direction(batch, 1), [[-2.0, 1.0], [-4.0, 3.0]])


def param_contraction(net, theta, y, lam):
    """Sum over the batch of <lam, df/dtheta>: the parameter half of the
    reverse through one field evaluation at y, copied out of the net's
    gradient buffer, which the next parameter reverse overwrites."""
    layers = net.prepare(theta)
    acts = net._forward(layers, y)
    return net.field_vjp(layers, acts, lam)[1].copy()


def test_vjp_params_matches_finite_differences():
    net = HamiltonianNet(1, hidden=(4,))
    rng = np.random.default_rng(15)
    theta = net.init_params(6)
    y = rng.uniform(-1, 1, size=(3, 2))
    lam = rng.standard_normal((3, 2))

    def contraction(th):
        return float(np.sum(lam * net.field(th)(y)))

    want = central_diff(contraction, theta, eps=1e-6)
    got = param_contraction(net, theta, y, lam)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-7 * scale


def test_vjp_params_sums_over_batch():
    net = HamiltonianNet(1, hidden=(5,))
    rng = np.random.default_rng(16)
    theta = net.init_params(7)
    y = rng.uniform(-1, 1, size=(4, 2))
    lam = rng.standard_normal((4, 2))
    whole = param_contraction(net, theta, y, lam)
    parts = sum(param_contraction(net, theta, y[i:i + 1], lam[i:i + 1]) for i in range(4))
    assert np.max(np.abs(whole - parts)) <= 1e-12 * max(1.0, np.max(np.abs(whole)))


def test_field_vjp_equals_hessian_contraction():
    net = HamiltonianNet(1, hidden=(6,))
    rng = np.random.default_rng(17)
    theta = net.init_params(9)
    y = rng.uniform(-1, 1, size=(3, 2))
    u = rng.standard_normal((3, 2))
    layers = net.prepare(theta)
    acts = net._forward(layers, y)
    ybar, _ = net.field_vjp(layers, acts, u)
    hess = hessian(net, theta, y)
    w = costate_to_direction(u, 1)
    want = np.einsum("bij,bj->bi", hess, w)
    assert np.max(np.abs(ybar - want)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hidden", [(1,), (5,), (16, 32, 16)])
def test_closed_form_hessian_matches_field_vjp_columns(dim, hidden):
    # column k of d2H/dy2 is the state half of the reverse through one field
    # evaluation, with the cotangent u that costate_to_direction maps to e_k
    net = HamiltonianNet(dim, hidden=hidden)
    theta = 3.0 * net.init_params(18)
    rng = np.random.default_rng(19)
    y = rng.uniform(-1, 1, size=(64, 2 * dim))
    layers = net.prepare(theta)
    acts = net._forward(layers, y)
    cols = []
    for k in range(2 * dim):
        e_k = np.zeros_like(y)
        e_k[:, k] = 1.0
        u = np.concatenate([e_k[:, dim:], -e_k[:, :dim]], axis=1)
        assert np.array_equal(costate_to_direction(u, dim), e_k)
        cols.append(net.field_vjp(layers, acts, u)[0])
    want = np.stack(cols, axis=-1)
    got = hessian(net, theta, y)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.array_equal(got, got.swapaxes(-1, -2))


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hidden", [(1,), (5,), (16, 32, 16)])
def test_mixed_sweep_matches_the_reference_sweep(hidden, dim, batch):
    # the tangent-over-reverse sweep as field_vjp runs it on a recorded
    # tape, and as the costate step runs it with and without its state
    # half, against the plain reference sweep
    net = HamiltonianNet(dim, hidden=hidden)
    theta = 2.0 * net.init_params(22)
    rng = np.random.default_rng(23)
    y = rng.uniform(-1, 1, size=(batch, 2 * dim))
    u = rng.standard_normal((batch, 2 * dim))
    w_dir = np.concatenate([-u[:, dim:], u[:, :dim]], axis=1)
    want = naive_tangent_reverse(theta, net.arch, y, w_dir)

    def check(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    layers = net.prepare(theta)
    acts = net._forward(layers, y)
    for need_state in (True, False):
        # the costate step's parameter reverse: the tangent-over-reverse on
        # the primal pieces a Hessian pass kept, with no second primal
        # reverse; it consumes them, so each call gets a fresh pass
        _, hess_tape, primal = net._hess_and_tape(layers, y)
        state, params = net._tangent_reverse(layers, hess_tape, primal, w_dir, need_state)
        check(params, want[1])
        if need_state:
            check(state, want[0])
        else:
            assert state is None
    for part, ref in zip(net.field_vjp(layers, acts, u), want):
        check(part, ref)


@pytest.mark.parametrize("hidden", [(1,), (16, 32, 16)])
def test_sweeps_leave_their_inputs_alone_and_repeat_bitwise(hidden):
    # the passes write only into fresh arrays and the net's buffer set:
    # theta, the tape and the direction come out untouched, and the same
    # calls again refill every set buffer they returned with the same
    # bits and leave every fresh result alone
    net = HamiltonianNet(2, hidden=hidden)
    theta = net.init_params(24)
    rng = np.random.default_rng(25)
    y = rng.uniform(-1, 1, size=(32, 4))
    w_dir = rng.standard_normal((32, 4))
    kept = [theta.copy(), y.copy(), w_dir.copy()]
    layers = net.prepare(theta)
    acts = net._forward(layers, y)
    tape = [a.copy() for a in acts]

    def sweeps():
        fresh = net._forward(layers, y)
        hess, hess_tape, primal = net._hess_and_tape(layers, y)
        return [*fresh, net._reverse_input(layers, acts), *net.field_vjp(layers, acts, w_dir),
                hess, *hess_tape, *primal[0], *primal[1], *primal[2]]

    first = sweeps()
    first_copy = [a.copy() for a in first]
    second = sweeps()
    for a, b, c in zip(first, first_copy, second):
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)
    for now, before in zip([theta, y, w_dir, *acts], kept + tape):
        assert np.array_equal(now, before)


@pytest.mark.parametrize("dim", [1, 2])
def test_workspace_buffers_sit_apart_mod_4k(dim):
    # an elementwise pass whose output starts within a few bytes of an
    # operand mod 4 KiB runs at about half speed (4K aliasing); every pair
    # of one batch size's buffers must start at least 64 B apart mod 4 KiB
    net = HamiltonianNet(dim)
    placed = net._scratch(net.prepare(net.init_params(0)), 512).placed
    offsets = sorted(a.__array_interface__["data"][0] % 4096 for a in placed)
    assert len(offsets) >= 6 * len(net.arch[1:-1])
    gaps = np.diff(offsets + [offsets[0] + 4096])
    assert gaps.min() >= 64


def test_workspace_holds_the_buffer_set_of_one_batch_size():
    # a pass at another batch size replaces the set, so one-shot sizes (an
    # eval grid, a drift rollout's energies) hold no memory afterwards
    net = HamiltonianNet(1, hidden=(4,))
    field = net.field(net.init_params(34))
    field(np.zeros((512, 2)))
    first = weakref.ref(net._bufs)
    assert first().batch == 512
    field(np.zeros((7, 2)))
    assert first() is None and net._bufs.batch == 7


@pytest.mark.parametrize("dim", [1, 2])
def test_results_callers_keep_share_no_memory_with_the_workspace(dim):
    # field values, field_vjp's ybar and the Hessian are held by solvers and
    # engines across later passes, so none of them may be a scratch buffer
    net = HamiltonianNet(dim)
    theta = net.init_params(32)
    rng = np.random.default_rng(33)
    y = rng.uniform(-1, 1, size=(64, 2 * dim))
    u = rng.standard_normal((64, 2 * dim))
    prep = net.prepare(theta)
    tapes = []
    kept = [net.field(theta)(y), net.field(theta, tapes)(y), *tapes[0][1:],
            net.field_vjp(prep, net._forward(prep, y), u)[0], net._hess_and_tape(prep, y)[0]]
    for array in kept:
        for buffer in net._bufs.placed:
            assert not np.shares_memory(array, buffer)


def test_field_closure_matches_dynamics_and_keeps_tapes_on_request():
    net = HamiltonianNet(2, hidden=(6, 5))
    theta = net.init_params(26)
    y = np.random.default_rng(27).uniform(-1, 1, size=(9, 4))
    want = broadcasting_field(theta, net.arch, y)
    assert np.array_equal(net.field(theta)(y), want)
    tapes = []
    assert np.array_equal(net.field(theta, tapes)(y), want)
    assert len(tapes) == 1 and np.array_equal(tapes[0][0], y)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hidden", [(1,), (5,), (16, 32, 16)])
def test_field_closure_is_dynamics_bit_for_bit(hidden, dim):
    # the closure ends its reverse on W_0^T with the canonical rotation
    # folded into its columns; the reference rotates the plain input
    # gradient afterwards
    net = HamiltonianNet(dim, hidden=hidden)
    theta = 2.0 * net.init_params(28)
    for batch in (1, 64, 512):
        y = np.random.default_rng(batch).uniform(-1, 1, size=(batch, 2 * dim))
        assert np.array_equal(net.field(theta)(y), broadcasting_field(theta, net.arch, y))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hidden", [(1,), (5,), (16, 32, 16)])
def test_tiled_rows_serve_every_batch_size_bit_for_bit(hidden, dim):
    # one net serves batches of 512, 1 and 3 in turn, each from the
    # buffer set's bias and head rows tiled to the batch size in hand.  The
    # forward pass and the first multiply of each reverse must equal the
    # broadcasting reference bit for bit, every pass must equal the same
    # pass on a fresh PreparedNet, and after each size's passes the tiled
    # rows must be unwritten
    net = HamiltonianNet(dim, hidden=hidden)
    theta = 2.0 * net.init_params(30)
    layers = net.unpack(theta)
    head = layers[-1][0][:, 0]
    prep = net.prepare(theta)
    field = net.field(theta)
    rng = np.random.default_rng(31)
    for batch in (512, 1, 3, 512, 1):
        y = rng.uniform(-1, 1, size=(batch, 2 * dim))
        u = rng.standard_normal((batch, 2 * dim))
        want = broadcasting_forward(theta, net.arch, y)
        want_field = broadcasting_field(theta, net.arch, y)

        acts = net._forward(prep, y)
        assert all(np.array_equal(a, b) for a, b in zip(acts, want, strict=True))
        assert np.array_equal(net._reverse_input(prep, acts), want_field)
        primal = net._primal_reverse(prep, acts)
        a = want[-1]
        assert np.array_equal(primal[1][-1], (1.0 - a * a) * head)
        assert np.array_equal(field(y), want_field)
        assert np.array_equal(field(y[0]), broadcasting_field(theta, net.arch, y[0]))
        hess = net._hess_and_tape(prep, y)[0]
        assert np.array_equal(hess, hessian(net, theta, y))
        fresh = net.prepare(theta)
        for got, ref in zip(net.field_vjp(prep, acts, u), net.field_vjp(fresh, acts, u)):
            assert np.array_equal(got, ref)
        bufs = net._bufs
        assert bufs.batch == batch
        for (_, b), tiled in zip(layers[:-1], bufs.biases, strict=True):
            assert np.array_equal(tiled, np.broadcast_to(b, tiled.shape))
        assert np.array_equal(bufs.head, np.broadcast_to(head, bufs.head.shape))


def test_field_closure_is_freed_without_the_cycle_collector():
    # the closure holds the PreparedNet; it must not sit in a reference
    # cycle, or every rollout's prepared weights would live until the cycle
    # collector happened to run
    net = HamiltonianNet(1, hidden=(4,))
    theta = net.init_params(32)
    y = np.random.default_rng(33).uniform(-1, 1, size=(8, 2))
    gc.disable()
    try:
        field = net.field(theta)
        field(y)
        field(y[0])
        ref = weakref.ref(field)
        del field
        assert ref() is None
    finally:
        gc.enable()


def test_methods_are_pure():
    net = HamiltonianNet(1)
    theta = net.init_params(0)
    y = np.array([[0.3, -0.4], [0.1, 0.2]])
    y_copy = y.copy()
    theta_copy = theta.copy()
    first = (net.eval_h(theta, y), net.field(theta)(y), hessian(net, theta, y))
    second = (net.eval_h(theta, y), net.field(theta)(y), hessian(net, theta, y))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert np.array_equal(y, y_copy)
    assert np.array_equal(theta, theta_copy)


def test_bad_shapes_are_rejected():
    # a net with no hidden layer is linear in y, so its field is constant;
    # int() would turn widths 2.7 and 3.9 into 2 and 3, dim 1.5 into 1 and
    # True into a width-1 layer, and a bare width 5 is no sequence, so each
    # must fail naming what it is
    for hidden in ((), (2.7, 3.9), (True,), 5):
        with pytest.raises(ValueError, match="^hidden "):
            HamiltonianNet(1, hidden=hidden)
    with pytest.raises(ValueError, match="^dim "):
        HamiltonianNet(1.5)
    # numpy integers are integers, and arch keeps Python ints for the JSON header
    net = HamiltonianNet(np.int64(1), hidden=np.array([3, 4]))
    assert net.arch == (2, 3, 4, 1) and all(type(w) is int for w in net.arch)
    net = HamiltonianNet(1)
    theta = net.init_params(0)
    with pytest.raises(ValueError):
        net.eval_h(theta, np.zeros(3))
    with pytest.raises(ValueError):
        net.eval_h(theta[:-1], np.zeros(2))
    with pytest.raises(ValueError):
        net.eval_h(theta, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="vector"):
        net.eval_h(theta, np.zeros((1, 2, 2)))


def test_checkpoint_roundtrip(tmp_path):
    net = HamiltonianNet(1, hidden=(4, 4))
    theta = net.init_params(21)
    header, binary = save_checkpoint(tmp_path / "model.json", net, theta, seed=21)
    loaded_net, loaded_theta, header_dict = load_checkpoint(header)
    assert loaded_net.arch == net.arch
    assert np.array_equal(loaded_theta, theta)
    assert header_dict["seed"] == 21
    assert binary.exists()


def test_checkpoint_rejects_corruption(tmp_path):
    net = HamiltonianNet(1, hidden=(4,))
    theta = net.init_params(1)
    with pytest.raises(ValueError, match="theta has shape"):
        save_checkpoint(tmp_path / "m.json", net, theta[:-1], seed=1)
    assert not any(tmp_path.iterdir())
    header, binary = save_checkpoint(tmp_path / "m.json", net, theta, seed=1)

    data = binary.read_bytes()
    binary.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(header)
    binary.write_bytes(data)

    import json
    hd = json.loads(header.read_text())
    hd["format_version"] = 99
    header.write_text(json.dumps(hd))
    with pytest.raises(ValueError):
        load_checkpoint(header)

    hd["format_version"] = 1
    hd["param_count"] = 7
    header.write_text(json.dumps(hd))
    with pytest.raises(ValueError):
        load_checkpoint(header)
