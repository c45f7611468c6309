"""Trainable Hamiltonian: a dense tanh network with hand-written derivatives.

The network maps a phase-space point y = (q, p), flattened into one vector of
width 2*dim, through one or more tanh hidden layers to a scalar energy (with
none, H would be linear in y and its field constant).  Everything the solvers
need is derived from that scalar by explicit forward/reverse sweeps written
out below:

    eval_h       H(theta, y)
    grad_state   dH/dy                       (one reverse sweep)
    dynamics     (dH/dp, -dH/dq)             (canonical field from grad_state)
    field        the same field as a closure   (one prepared network per
                                              rollout; optionally keeps tapes)
    field_vjp    (df/dy)^T u, (df/dtheta)^T u  (reverse over a directional tangent)

No autodiff framework is used: the passes are few, the layer structure is
fixed, and writing them out makes every buffer's size and lifetime explicit,
which is what lets the engines bound their memory.  tanh keeps the model
C^2; the costate equations differentiate the vector field once more, so a
merely C^1 activation would break them.

The passes run on a PreparedNet, built once per engine call (one rollout,
one costate sweep, one recorded reverse).  It holds every hidden layer's
W^T contiguous, because a matmul against a transposed view costs 1.3-2.7x
a contiguous one at these shapes, and makes on first use the field's copy
of the input layer's W^T with the canonical rotation (dH/dp, -dH/dq) folded
into its columns, so a field evaluation ends on the field itself, and the
weight-only products of the closed-form Hessian.

Every [B, n] array a pass writes and no caller keeps, and the parameter
gradient, live in the net's one buffer set, for the batch size in hand,
replaced when a pass runs at another size, so a training run allocates its
working memory once instead of once per pass (a fresh process otherwise
spends much of its time faulting freed temporaries back in).  The set also
holds the hidden biases and the head row tiled to [B, n], refilled whenever
a pass runs on another PreparedNet, so the forward pass's bias adds and
each reverse's first multiply run same-shape instead of broadcasting a row
(bit for bit the same result, in less than half the time).  Passes write
into the set with out=, so results are bit for bit those of fresh arrays.
What a caller keeps is always fresh: field values, field_vjp's ybar, the
Hessian and the activations of a taped forward pass.

One tangent-over-reverse routine, _tangent_reverse, serves the reverse
through a recorded field evaluation (field_vjp) and the costate step's
parameter term.  It runs on the primal reverse's per-layer slopes 1 - a^2,
cotangents and curvature weights: the costate step hands in the ones its
Hessian pass made, and field_vjp gets them from one primal reverse over the
recorded tape.

Each pass does only the work its output needs: the output layer is linear
with one unit, so reverse sweeps start just below it from the row W_L[:, 0],
only eval_h runs the output layer's matmul, and nothing zero or thrown away
is computed.  Passes never write into theta, a tape, a direction or a tiled
row.  A pass's results in the set hold until the next pass on the same net
overwrites them; _tangent_reverse also consumes the primal reverse's
curvatures handed to it.

Parameters travel as a single flat float64 vector (layer by layer, weight
matrix then bias) so optimizers, finite differencing and checkpoints stay
trivial.
"""

import functools
import json
import math
import pathlib

import numpy as np

from .data import _read_json, open_atomically
from .integrators import _check_count, _is_int

CHECKPOINT_FORMAT_VERSION = 1
_HEADER_KEYS = {"format_version", "kind", "dim", "arch", "seed", "param_count", "dtype",
                "data_file"}

DEFAULT_HIDDEN = (16, 32, 16)


def _widths(hidden):
    """The hidden widths as a tuple of Python ints (save_checkpoint writes
    arch as JSON), from a list, a tuple or a 1-D integer array.  With no
    hidden layer H is linear in y and its field constant, which no
    registered system has."""
    sequence = isinstance(hidden, (list, tuple)) or (isinstance(hidden, np.ndarray)
                                                      and hidden.ndim == 1)
    widths = tuple(hidden) if sequence else ()
    if not (widths and all(_is_int(w) and w >= 1 for w in widths)):
        raise ValueError(f"hidden must be a non-empty sequence of integers >= 1, "
                         f"got {hidden!r}")
    return tuple(int(w) for w in widths)


def param_count(arch):
    """Total flat length: sum over layers of n_in*n_out + n_out."""
    return int(sum(n_in * n_out + n_out for n_in, n_out in zip(arch[:-1], arch[1:])))


@functools.lru_cache(maxsize=None)
def _direction_map(dim):
    """The signed permutation matrix P, read-only, with lam @ P = (-lam_p, lam_q)."""
    p = np.eye(2 * dim, k=dim) - np.eye(2 * dim, k=-dim)
    p.flags.writeable = False
    return p


def costate_to_direction(lam, dim):
    """Map a costate lam = (lam_q, lam_p) to the direction w = (-lam_p, lam_q).

    With the canonical field f = (dH/dp, -dH/dq) one has, for fixed lam,
    <lam, f> = <w, dH/dy>, so contractions of lam against df/dy or df/dtheta
    become plain directional derivatives of dH/dy along w.  Both the costate
    right-hand side and the parameter-gradient integrand go through here,
    as one exact product with a signed permutation matrix (on a Xeon, 2 us
    at [512, 4], where canonical_field(-lam, dim) takes 11 us).
    """
    return lam @ _direction_map(dim)


def canonical_field(g, dim):
    """Map dH/dy = (g_q, g_p) to the canonical field (g_p, -g_q), along the
    last axis; applied to a matrix's columns it folds the same map into it."""
    return np.concatenate([g[..., dim:], -g[..., :dim]], axis=-1)


def _split(flat, shapes):
    """Flat vector -> list of (W, b) views, no copies, W of each (n_in, n_out)
    in shapes followed by its bias b of length n_out."""
    layers, pos = [], 0
    for n_in, n_out in shapes:
        w = flat[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        layers.append((w, flat[pos:pos + n_out]))
        pos += n_out
    return layers


def _as_batch(y, width):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        if y.shape[0] != width:
            raise ValueError(f"phase point has width {y.shape[0]}, expected {width}")
        return y[None, :], True
    if y.ndim == 2:
        if y.shape[1] != width:
            raise ValueError(f"phase points have width {y.shape[1]}, expected {width}")
        return y, False
    raise ValueError("phase points must be a vector [2d] or a batch [B, 2d]")


class PreparedNet:
    """One parameter vector laid out for the passes of one engine call: the
    (W, b) views of theta (layers), the row W_L[:, 0] every reverse starts
    from (head), and each hidden layer's W^T made contiguous (wt).  Built on
    first use, so that a lone dynamics call pays for neither: field_chain,
    the reverse chain with canonical_field folded into its last operand, and
    hess_terms, the closed-form Hessian's weight-only products.
    """

    def __init__(self, layers, dim):
        self.layers = layers
        self.dim = dim
        self.head = layers[-1][0][:, 0]
        self.wt = [np.ascontiguousarray(w.T) for w, _ in layers[:-1]]

    @functools.cached_property
    def field_chain(self):
        return [canonical_field(self.wt[0], self.dim), *self.wt[1:]]

    @functools.cached_property
    def hess_terms(self):
        w0, wt0 = self.layers[0][0], self.wt[0]
        pairs = np.ascontiguousarray((w0[:, None, :] * w0).reshape(len(w0) ** 2, -1).T)
        cross = (wt0[:, :, None] * self.layers[1][0][:, None, :]).reshape(len(wt0), -1)
        return pairs, cross


# x86 cores match a load against earlier stores on the low 12 address bits
# first, so an elementwise pass whose output starts a few bytes past an
# operand mod 4 KiB stalls on false conflicts ("4K aliasing", Intel 64 and
# IA-32 Architectures Optimization Reference Manual, 3.6.8): on a Xeon, a
# [512, 32] product writing 16-48 B past an operand took 9.0-9.3 us against
# 4.5-4.7 us at 64 B or more.  Fresh arrays of these sizes land 16 B apart
# mod 4 KiB (the allocator's chunk header), so the scratch buffers are placed.
_PAGE = 4096
_GAP = 64          # the least distance between two buffers' offsets mod _PAGE


def _place(shapes):
    """Float64 arrays of the given shapes, each starting at its own offset
    mod _PAGE, spread evenly: at least _GAP bytes apart while there are at
    most _PAGE / _GAP of them.  Each has a block of its own, so only the
    buffers a pass writes become resident, and none reaches the 4 MiB at
    which NumPy asks for huge pages."""
    step = max(_GAP, _PAGE // len(shapes) // _GAP * _GAP)
    out = []
    for i, shape in enumerate(shapes):
        size = math.prod(shape)
        block = np.empty(size + _PAGE // 8)
        pad = (i * step - block.__array_interface__["data"][0]) % _PAGE // 8
        out.append(block[pad:pad + size].reshape(shape))
    return out


class _Buffers:
    """The scratch of one batch size B, placed by _place.  Per hidden layer
    k, one [B, n_k] array in each of biases (the bias row tiled), acts (the
    un-taped forward activations), slopes, cots and curv (the reverses'
    slopes, cotangents and curvatures) and tans (the tangent reverse's
    tangents).  bars, for every hidden layer but the last, holds the
    cotangent on its output: the input reverse's bars, the primal reverse's
    deltas or the tangent reverse's cotangents, which never live at once.
    hess[k - 1], k >= 1, holds the Hessian pass's tangents at layer k, one
    per input direction, then its product buffer; tans[k] shares the first,
    since the Hessian pass ends before a tangent reverse starts.  head is
    the head row tiled, ones the batch-sum row, and owner the PreparedNet
    the tiled rows were filled from.  grad is one flat parameter gradient
    laid out like theta, with its (W, b) views, which every _tangent_reverse
    overwrites.
    """

    def __init__(self, batch, arch):
        self.batch = batch
        width, hidden = arch[0], arch[1:-1]
        layout = [("ones", [(batch,)]), ("head", [(batch, hidden[-1])]),
                  *((name, [(batch, n) for n in hidden])
                    for name in ("biases", "acts", "slopes", "cots", "curv")),
                  ("bars", [(batch, n) for n in hidden[:-1]]), ("tans", [(batch, hidden[0])]),
                  ("hess", [(batch, n) for n in hidden[1:] for _ in range(width + 1)])]
        self.placed = _place([shape for _, shapes in layout for shape in shapes])
        arrays = iter(self.placed)
        for name, shapes in layout:
            setattr(self, name, [next(arrays) for _ in shapes])
        (self.ones,), (self.head,) = self.ones, self.head
        self.ones[:] = 1.0
        self.hess = [self.hess[i:i + width + 1] for i in range(0, len(self.hess), width + 1)]
        self.tans += [held[0] for held in self.hess]
        self.owner = None
        flat = np.empty(param_count(arch))
        self.grad = flat, _split(flat, zip(arch[:-1], arch[1:]))


class HamiltonianNet:
    """Feed-forward scalar network over phase space, with its derivative passes.

    All public methods accept a single point [2d] or a batch [B, 2d] and
    give pure results: bit-identical for identical inputs, whatever ran
    before.  Scratch is held: the passes write their working arrays into
    the net's one _Buffers set (_scratch), which no method returns apart
    from field_vjp's parameter gradient.
    """

    def __init__(self, dim, hidden=DEFAULT_HIDDEN):
        _check_count("dim", dim)
        self.dim = int(dim)
        self.arch = (2 * self.dim, *_widths(hidden), 1)
        self.n_params = param_count(self.arch)
        self._bufs = None

    def _scratch(self, prep, batch):
        """The buffer set of batch, made when the set in hand is of another
        size, with its tiled rows filled from prep."""
        bufs = self._bufs
        if bufs is None or bufs.batch != batch:
            bufs = self._bufs = _Buffers(batch, self.arch)
        if bufs.owner is not prep:
            for row, (_, b) in zip(bufs.biases, prep.layers[:-1]):
                row[:] = b
            bufs.head[:] = prep.head
            bufs.owner = prep
        return bufs

    # ------------------------------------------------------------------
    # parameters

    def init_params(self, seed):
        """Weights uniform on +-1/sqrt(fan_in), biases zero, per-seed deterministic."""
        rng = np.random.default_rng(seed)
        chunks = []
        for n_in, n_out in zip(self.arch[:-1], self.arch[1:]):
            scale = 1.0 / np.sqrt(n_in)
            chunks.append(rng.uniform(-scale, scale, size=n_in * n_out))
            chunks.append(np.zeros(n_out))
        return np.concatenate(chunks)

    def unpack(self, theta):
        """Flat vector -> list of (W, b) views, no copies."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has shape {theta.shape}, expected ({self.n_params},)"
            )
        return _split(theta, zip(self.arch[:-1], self.arch[1:]))

    def prepare(self, theta):
        """The PreparedNet of theta, for the passes of one engine call."""
        return PreparedNet(self.unpack(theta), self.dim)

    # ------------------------------------------------------------------
    # forward / reverse sweeps

    def _forward(self, prep, y, taped=False):
        """Activation list a_0 = y, a_1.. through the hidden layers (tanh).
        Every reverse starts below the linear output layer, which only
        eval_h applies.

        Each layer's product lands in the buffer set, or with taped set in a
        fresh array that a tape may keep; its bias add (of the tiled bias
        rows) and tanh run in place on it.
        """
        bufs = self._scratch(prep, len(y))
        acts = [y]
        for (w, _), bias, z in zip(prep.layers[:-1], bufs.biases, bufs.acts):
            if taped:
                z = np.empty_like(z)
            np.matmul(acts[-1], w, out=z)
            z += bias
            np.tanh(z, out=z)
            acts.append(z)
        return acts

    def _reverse_input(self, prep, acts, field=False):
        """d(sum of outputs)/d(input), walked back layer by layer from the
        head row; with field set, the canonical field (dH/dp, -dH/dq) instead,
        through the reverse chain that has the rotation folded in.
        """
        bufs = self._scratch(prep, len(acts[0]))
        bar = bufs.head
        back = prep.field_chain if field else prep.wt
        for l in range(len(back) - 1, -1, -1):
            slope = np.multiply(acts[l + 1], acts[l + 1], out=bufs.slopes[l])
            np.subtract(1.0, slope, out=slope)
            slope *= bar
            bar = np.matmul(slope, back[l], out=bufs.bars[l - 1] if l else None)
        return bar

    def _primal_reverse(self, prep, acts):
        """The ordinary reverse sweep of H on a tape, kept per hidden layer l
        for the passes built on it: (slopes, cots, curv) with

            slopes[l] = 1 - a^2               tanh'(z_l), a = a_{l+1}
            cots[l]   = g_l = delta_l * slope  the cotangent on z_l
            curv[l]   = -2 a g_l               delta_l * tanh''(z_l)

        delta_l being the cotangent on a_{l+1}.  All three are the
        buffer set's lists; _tangent_reverse overwrites curv, so the pieces
        serve one tangent-over-reverse at most.
        """
        bufs = self._scratch(prep, len(acts[0]))
        delta = bufs.head
        for l in range(len(prep.layers) - 2, -1, -1):
            a = acts[l + 1]
            slope = np.multiply(a, a, out=bufs.slopes[l])
            np.subtract(1.0, slope, out=slope)
            g = np.multiply(delta, slope, out=bufs.cots[l])
            c = np.multiply(a, g, out=bufs.curv[l])
            c *= -2.0
            if l > 0:
                delta = np.matmul(g, prep.wt[l], out=bufs.bars[l - 1])
        return bufs.slopes, bufs.cots, bufs.curv

    def _tangent_reverse(self, prep, acts, primal, w_dir, need_state):
        """Tangent sweep along w_dir, then reverse through primal and tangent,
        on the primal reverse's pieces (_primal_reverse) for the same tape.

        The tangent forward propagates ydot_0 = w_dir through the hidden
        layers, towards the directional derivative T = <w_dir, dH/dy> per
        row.  The reverse sweep then differentiates sum(T) and returns
        (dT/dy, dT/dtheta): dT/dy = (d2H/dy2) w_dir row-wise, None unless
        need_state, and dT/dtheta summed over the batch,
        which covers the reverse through a recorded field evaluation and the
        costate step's parameter-gradient integrand with one piece of code.
        It starts below the linear output layer, where the primal cotangent
        is exactly zero and the tangent cotangent is the head row, so T itself
        is never formed, and the tangent cotangent on each z_l is the primal
        g_l.  With zt_l the tangent of z_l, the cotangent on z_l is
        gz = curv_l * zt_l + s * slope_l, s the cotangent on a_{l+1}; the
        first term is formed on the way forward.  Batch sums are products
        with a row of ones, and the layer gradients land in the views of
        the buffer set's gradient, which the next pass overwrites.

        The pass consumes primal: gz is formed in place over curv_l, so the
        caller must never hand it in again.
        """
        slopes, cots, gzs = primal
        bufs = self._scratch(prep, len(w_dir))
        last = len(prep.layers) - 1
        tans = [w_dir]
        for l in range(last):
            zt = np.matmul(tans[-1], prep.layers[l][0], out=bufs.tans[l])
            gzs[l] *= zt
            zt *= slopes[l]
            tans.append(zt)

        grad, grads = bufs.grad
        ones = bufs.ones
        dw, db = grads[last]
        dw[:, 0] = ones @ tans[last]
        db[:] = 0.0
        s = None                         # zero until the first hidden layer
        for l in range(last - 1, -1, -1):
            gz = gzs[l]
            if s is not None:
                s *= slopes[l]
                gz += s
            dw, db = grads[l]
            np.matmul(acts[l].T, gz, out=dw)
            dw += tans[l].T @ cots[l]
            np.matmul(ones, gz, out=db)
            if l > 0 or need_state:
                s = np.matmul(gz, prep.wt[l], out=bufs.bars[l - 1] if l else None)
        return (s if need_state else None), grad

    # ------------------------------------------------------------------
    # public operations

    def eval_h(self, theta, y):
        """Scalar energy H(theta, y); batch in -> vector of energies out."""
        y2, single = _as_batch(y, self.arch[0])
        prep = self.prepare(theta)
        w, b = prep.layers[-1]
        out = self._forward(prep, y2)[-1] @ w
        out += b
        return float(out[0, 0]) if single else out[:, 0]

    def grad_state(self, theta, y):
        """dH/dy, shape like y."""
        y2, single = _as_batch(y, self.arch[0])
        prep = self.prepare(theta)
        g = self._reverse_input(prep, self._forward(prep, y2))
        return g[0] if single else g

    def dynamics(self, theta, y):
        """Canonical vector field (dH/dp, -dH/dq) at y."""
        return canonical_field(self.grad_state(theta, y), self.dim)

    def field(self, theta, tapes=None):
        """The canonical field y -> (dH/dp, -dH/dq) over a batch [B, 2d], as
        a closure over one PreparedNet of theta for a whole rollout.

        Each evaluation is one forward pass through the hidden layers and one
        input reverse whose last matmul lands on the field.  A single state
        [2d] goes through as a batch of one and comes back as [2d].  With a
        list for tapes the closure appends each evaluation's activations to
        it for a later reverse.
        """
        prep = self.prepare(theta)

        def evaluate(y):
            single = y.ndim == 1
            acts = self._forward(prep, y[None, :] if single else y, tapes is not None)
            if tapes is not None:
                tapes.append(acts)
            f = self._reverse_input(prep, acts, True)
            return f[0] if single else f

        return evaluate

    def _hess_and_tape(self, prep, y):
        """Closed-form d2H/dy2 [B, 2d, 2d] from one forward pass; returns
        (hess, acts, primal), the activations being the forward tape and
        primal the pieces of its reverse sweep (_primal_reverse).

        For a tanh network the input Hessian is exactly

            sum over hidden layers l of  J_l^T diag(curv_l) J_l

        with J_l = dz_l/dy and curv_l = delta_l * tanh''(z_l) from the
        ordinary reverse sweep (BackPACK's per-layer recursion; Dangel,
        Kunstner & Hennig, ICLR 2020).  The reverse sweep runs first.  J_0 is
        the rows of W_0 at every point, so layer 0 adds one matmul against
        their pairwise products.

        Above it, each input direction i goes forward as one [B, n_l]
        tangent t_i: (slopes_0 * W_0[i]) @ W_1 into layer 1, one matmul of
        slopes_0 against direction i's column block of the combined weights
        (hess_terms), then (t_i * slopes_{l-1}) @ W_l.  Each layer adds the
        upper-triangle entries h_ij, j >= i, as row dots of t_i * curv_l
        against t_j, and the upper triangle is mirrored onto the lower at the
        end, so hess is exactly symmetric.  Each layer's tangents and its one
        product buffer are the buffer set's; only hess is fresh.  The
        costate step at dim 1 solves its 2x2 system from h00, h01 and h11
        by Cramer's rule (adjoint._cramer_step).
        """
        acts = self._forward(prep, y)
        primal = self._primal_reverse(prep, acts)
        held = self._scratch(prep, len(y)).hess
        batch, width = y.shape
        slopes, _, curv = primal
        pairs, cross = prep.hess_terms
        hess = curv[0] @ pairs
        n = cross.shape[1] // width
        for l in range(1, len(curv)):
            *outs, u = held[l - 1]
            if l == 1:
                tans = [np.matmul(slopes[0], cross[:, i * n:(i + 1) * n], out=out)
                        for i, out in enumerate(outs)]
            else:
                w = prep.layers[l][0]
                for t in tans:
                    t *= slopes[l - 1]
                tans = [np.matmul(t, w, out=out) for t, out in zip(tans, outs)]
            for i, t in enumerate(tans):
                np.multiply(t, curv[l], out=u)
                for j in range(i, width):
                    hess[:, i * width + j] += np.einsum("ij,ij->i", u, tans[j])
        hess = hess.reshape(batch, width, width)
        for i in range(1, width):
            hess[:, i, :i] = hess[:, :i, i]
        return hess, acts, primal

    def field_vjp(self, prep, acts, u):
        """Reverse through one recorded field evaluation.

        Given the cotangent u on f(y) = (dH/dp, -dH/dq) and the activations
        recorded when f was evaluated, returns (ybar, thetabar):

            ybar     = (df/dy)^T u     = d2H/dy2 caught along w = (-u_p, u_q)
            thetabar = (df/dtheta)^T u summed over the batch

        This is the workhorse of the backprop-through-solver engine: one
        primal reverse over the tape, then _tangent_reverse on its pieces.
        ybar is fresh; thetabar is the buffer set's gradient, valid
        until the next parameter reverse on this net.
        """
        primal = self._primal_reverse(prep, acts)
        return self._tangent_reverse(prep, acts, primal, costate_to_direction(u, self.dim),
                                     True)


# ----------------------------------------------------------------------
# checkpoints: JSON header + sibling little-endian float64 binary


def _binary_sibling(header_path):
    header_path = pathlib.Path(header_path)
    return header_path.with_suffix(".bin")


def save_checkpoint(header_path, net, theta, seed):
    """Write <stem>.bin holding theta, then <stem>.json describing the model;
    each is renamed into place whole, so a header never meets a partial binary."""
    header_path = pathlib.Path(header_path)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (net.n_params,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({net.n_params},)")
    bin_path = _binary_sibling(header_path)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "hamiltonian-net",
        "dim": net.dim,
        "arch": list(net.arch),
        "seed": seed,
        "param_count": int(net.n_params),
        "dtype": "<f8",
        "data_file": bin_path.name,
    }
    header_path.parent.mkdir(parents=True, exist_ok=True)
    with open_atomically(bin_path, "wb") as fh:
        theta.astype("<f8").tofile(fh)
    with open_atomically(header_path) as fh:
        fh.write(json.dumps(header, indent=2, sort_keys=True) + "\n")
    return header_path, bin_path


def load_checkpoint(header_path):
    """Read a checkpoint pair back; returns (net, theta, header).

    The header must be a JSON object of the current format_version holding
    exactly the fields save_checkpoint writes, each of its type; data_file
    must be a bare file name, read from beside the header; and every
    parameter must be finite.  Anything else raises ValueError naming the
    file or the field.
    """
    header_path = pathlib.Path(header_path)
    header = _read_json(header_path, version=CHECKPOINT_FORMAT_VERSION, keys=_HEADER_KEYS)
    for name, want in (("kind", "hamiltonian-net"), ("dtype", "<f8")):
        if header[name] != want:
            raise ValueError(f"checkpoint {name} must be {want!r}, got {header[name]!r}")
    if not _is_int(header["seed"]):
        raise ValueError(f"checkpoint seed must be an integer, got {header['seed']!r}")
    arch = header["arch"]
    if not (isinstance(arch, list) and len(arch) >= 2 and all(_is_int(w) and w >= 1 for w in arch)
            and arch[-1] == 1 and arch[0] % 2 == 0):
        raise ValueError(f"checkpoint arch {arch!r} is not a scalar network over phase space")
    net = HamiltonianNet(arch[0] // 2, hidden=arch[1:-1])
    if not _is_int(header["dim"]) or header["dim"] != net.dim:
        raise ValueError(f"checkpoint dim {header['dim']!r} does not match arch {arch}")
    if not _is_int(header["param_count"]) or header["param_count"] != net.n_params:
        raise ValueError(f"checkpoint param_count {header['param_count']!r} does not match "
                         f"arch {arch}")
    data_file = header["data_file"]
    if not (isinstance(data_file, str) and data_file not in ("", ".", "..")
            and pathlib.PurePath(data_file).name == data_file):
        raise ValueError(f"checkpoint data_file must be a bare file name, got {data_file!r}")
    theta = np.fromfile(header_path.parent / data_file, dtype="<f8")
    if theta.shape != (net.n_params,):
        raise ValueError(
            f"parameter file holds {theta.size} values, arch {arch} needs {net.n_params}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"checkpoint parameters hold {np.count_nonzero(~np.isfinite(theta))} "
                         "non-finite values")
    return net, theta, header
