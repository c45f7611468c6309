"""Trainable Hamiltonian: a dense tanh network with hand-written derivatives.

The network maps a phase-space point y = (q, p), flattened into one vector of
width 2*dim, to a scalar energy.  Everything the solvers need is derived from
that scalar by explicit forward/reverse sweeps written out below:

    eval_h       H(theta, y)
    grad_state   dH/dy                       (one reverse sweep)
    dynamics     (dH/dp, -dH/dq)             (canonical field from grad_state)
    field        the same field as a closure   (theta unpacked once per
                                              rollout; optionally keeps tapes)
    hess_state   d2H/dy2                     (closed form: reverse sweep plus
                                              all 2d input tangents at once)
    field_vjp    (df/dy)^T u, (df/dtheta)^T u  (reverse over a directional tangent)

No autodiff framework is used: the passes are few, the layer structure is
fixed, and writing them out keeps every buffer under our control, which the
memory accounting in the gradient engines depends on.  tanh keeps the model
C^2; the costate equations differentiate the vector field once more, so a
merely C^1 activation would break them.

Each pass does only the work its output needs: the output layer is linear
with one unit, so reverse sweeps start just below it from the row W_L[:, 0],
and nothing zero or thrown away is computed.  Passes write in place only into
arrays they have just created, never into theta, a tape or a direction.

Parameters travel as a single flat float64 vector (layer by layer, weight
matrix then bias) so optimizers, finite differencing and checkpoints stay
trivial.
"""

import json
import pathlib

import numpy as np

from .data import open_atomically
from .memory import METER

CHECKPOINT_FORMAT_VERSION = 1

DEFAULT_HIDDEN = (16, 32, 16)


def param_count(arch):
    """Total flat length: sum over layers of n_in*n_out + n_out."""
    return int(sum(n_in * n_out + n_out for n_in, n_out in zip(arch[:-1], arch[1:])))


def costate_to_direction(lam, dim):
    """Map a costate lam = (lam_q, lam_p) to the direction w = (-lam_p, lam_q).

    With the canonical field f = (dH/dp, -dH/dq) one has, for fixed lam,
    <lam, f> = <w, dH/dy>, so contractions of lam against df/dy or df/dtheta
    become plain directional derivatives of dH/dy along w.  Both the costate
    right-hand side and the parameter-gradient integrand go through here.
    """
    return np.concatenate([-lam[..., dim:], lam[..., :dim]], axis=-1)


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


class HamiltonianNet:
    """Feed-forward scalar network over phase space, with its derivative passes.

    All public methods accept a single point [2d] or a batch [B, 2d] and are
    pure: no internal state, bit-identical results for identical inputs.
    """

    def __init__(self, dim, hidden=DEFAULT_HIDDEN):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.arch = (2 * self.dim, *(int(w) for w in hidden), 1)
        if any(w < 1 for w in self.arch):
            raise ValueError(f"bad layer widths {self.arch}")
        self.n_params = param_count(self.arch)

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
        layers = []
        pos = 0
        for n_in, n_out in zip(self.arch[:-1], self.arch[1:]):
            w = theta[pos:pos + n_in * n_out].reshape(n_in, n_out)
            pos += n_in * n_out
            b = theta[pos:pos + n_out]
            pos += n_out
            layers.append((w, b))
        return layers

    # ------------------------------------------------------------------
    # forward / reverse sweeps

    def _forward(self, layers, y):
        """Activation list a_0..a_L; hidden layers tanh, output linear.

        Each layer's bias add and tanh run in place on its fresh product.
        The list is registered with the allocation meter while alive; callers
        must pair it with _drop.
        """
        acts = [y]
        last = len(layers) - 1
        for l, (w, b) in enumerate(layers):
            z = acts[-1] @ w
            z += b
            if l < last:
                np.tanh(z, out=z)
            acts.append(z)
        METER.track(*acts[1:])
        return acts

    @staticmethod
    def _drop(acts):
        METER.release(*acts[1:])

    def _reverse_input(self, layers, acts):
        """d(sum of outputs)/d(input), walked back layer by layer.

        The output layer is linear with one unit, so the cotangent just below
        it is the row W_L[:, 0] at every point; the sweep starts there.
        """
        bar = layers[-1][0][:, 0]
        for l in range(len(layers) - 2, -1, -1):
            slope = acts[l + 1] * acts[l + 1]
            np.subtract(1.0, slope, out=slope)
            slope *= bar
            bar = slope @ layers[l][0].T
        if bar.ndim == 1:            # no hidden layer: the same row everywhere
            bar = np.tile(bar, (len(acts[0]), 1))
        return bar

    def _mixed(self, layers, acts, w_dir, need_state, need_params):
        """Tangent sweep along w_dir, then reverse through primal and tangent.

        The tangent forward propagates ydot_0 = w_dir through the hidden
        layers, towards the directional derivative T = <w_dir, dH/dy> per
        row.  The reverse sweep then differentiates sum(T):

            need_state  -> dT/dy      = (d2H/dy2) w_dir, row-wise
            need_params -> dT/dtheta  summed over the batch

        which covers the reverse through a recorded field evaluation and the
        costate step's parameter-gradient integrand with one piece of code.
        It starts below the linear output layer, where the primal cotangent s
        is exactly zero and the tangent cotangent r is the row W_L[:, 0], so T
        itself is never formed.  The slopes 1 - a^2 are kept (metered) from
        the tangent forward, giving gz = s * slope - 2 r a ydot and
        gzt = r * slope.  Batch sums are products with a row of ones, and the
        layer gradients land in the unpacked views of one flat vector.
        """
        last = len(layers) - 1
        tans = [w_dir]
        slopes = []
        for l in range(last):
            slope = acts[l + 1] * acts[l + 1]
            np.subtract(1.0, slope, out=slope)
            tan = tans[-1] @ layers[l][0]
            tan *= slope
            slopes.append(slope)
            tans.append(tan)
        METER.track(*slopes, *tans[1:])

        grad = grads = ones = None
        if need_params:
            grad = np.empty(self.n_params)
            grads = self.unpack(grad)
            ones = np.ones(len(w_dir))
            dw, db = grads[last]
            dw[:, 0] = ones @ tans[last]
            db[:] = 0.0
        s = None                         # zero until the first hidden layer
        r = layers[last][0][:, 0]
        for l in range(last - 1, -1, -1):
            w = layers[l][0]
            gz = r * acts[l + 1]
            gz *= tans[l + 1]
            gz *= -2.0
            if s is not None:
                gz += s * slopes[l]
            gzt = r * slopes[l]
            if need_params:
                dw, db = grads[l]
                np.matmul(acts[l].T, gz, out=dw)
                dw += tans[l].T @ gzt
                np.matmul(ones, gz, out=db)
            if l > 0 or need_state:
                s = gz @ w.T
            if l > 0:
                r = gzt @ w.T

        METER.release(*slopes, *tans[1:])
        if need_state and s is None:     # no hidden layer: T is linear in y
            s = np.zeros_like(w_dir)
        return (s if need_state else None), grad

    # ------------------------------------------------------------------
    # public operations

    def eval_h(self, theta, y):
        """Scalar energy H(theta, y); batch in -> vector of energies out."""
        y2, single = _as_batch(y, self.arch[0])
        layers = self.unpack(theta)
        acts = self._forward(layers, y2)
        out = acts[-1][:, 0].copy()
        self._drop(acts)
        return float(out[0]) if single else out

    def grad_state(self, theta, y):
        """dH/dy, shape like y."""
        y2, single = _as_batch(y, self.arch[0])
        layers = self.unpack(theta)
        acts = self._forward(layers, y2)
        g = self._reverse_input(layers, acts)
        self._drop(acts)
        return g[0] if single else g

    def dynamics(self, theta, y):
        """Canonical vector field (dH/dp, -dH/dq) at y."""
        g = self.grad_state(theta, y)
        d = self.dim
        return np.concatenate([g[..., d:], -g[..., :d]], axis=-1)

    def field(self, theta, tapes=None):
        """The canonical field y -> (dH/dp, -dH/dq) over a batch [B, 2d], as
        a closure that unpacks theta once for a whole rollout.

        Each evaluation is one forward pass and one input reverse.  With a
        list for tapes the closure appends each evaluation's activations to
        it and keeps them metered for a later reverse; otherwise it drops
        them at once.
        """
        layers = self.unpack(theta)
        d = self.dim

        def evaluate(y):
            acts = self._forward(layers, y)
            g = self._reverse_input(layers, acts)
            if tapes is None:
                self._drop(acts)
            else:
                tapes.append(acts)
            return np.concatenate([g[:, d:], -g[:, :d]], axis=1)

        return evaluate

    def _hess_and_tape(self, layers, y):
        """Closed-form d2H/dy2 [B, 2d, 2d] from one forward pass; returns
        (hess, acts), the activations being the forward tape, to be released
        with _drop.

        For a tanh network the input Hessian is exactly

            sum over hidden layers l of  J_l^T diag(delta_l * s''(z_l)) J_l

        with J_l = dz_l/dy, delta_l the cotangent on a_l = tanh(z_l) from the
        ordinary reverse sweep, and s'' = -2 a (1 - a^2) (BackPACK's per-layer
        recursion; Dangel, Kunstner & Hennig, ICLR 2020).  The reverse sweep
        runs first and keeps the curvature weights c_l = delta_l * s''(z_l);
        the 2d input tangents then go forward together, stacked as
        [B, 2d, n_l], one matmul per layer, and only the current layer's stack
        is held.  Each layer adds J_l^T diag(c_l) J_l as one batched matmul;
        the upper triangle is then mirrored onto the lower, so hess is exactly
        symmetric.
        """
        acts = self._forward(layers, y)
        batch, width = y.shape
        last = len(layers) - 1
        if last == 0:
            return np.zeros((batch, width, width)), acts

        curv = [None] * last
        delta = layers[last][0][:, 0]
        for l in range(last - 1, -1, -1):
            a = acts[l + 1]
            g = delta * (1.0 - a ** 2)
            curv[l] = -2.0 * a * g
            if l > 0:
                delta = g @ layers[l][0].T
        METER.track(*curv)

        # J_0 is the rows of W_0 at every point, so layer 0 adds one matmul
        # against their pairwise products, and J_1 is one matmul of the slopes
        # against W_0 and W_1 combined
        w0 = layers[0][0]
        hess = (curv[0] @ (w0[:, None, :] * w0).reshape(width * width, -1).T
                ).reshape(batch, width, width)
        METER.release(curv[0])
        tan = None
        for l in range(1, last):
            w = layers[l][0]
            slope = 1.0 - acts[l] ** 2
            if tan is None:
                z_tan = slope @ (w0.T[:, :, None] * w[:, None, :]).reshape(len(w), -1)
            else:
                z_tan = (tan * slope[:, None, :]).reshape(-1, len(w)) @ w
            z_tan = z_tan.reshape(batch, width, -1)
            METER.track(z_tan)
            if tan is not None:
                METER.release(tan)
            tan = z_tan
            hess += (tan * curv[l][:, None, :]) @ tan.transpose(0, 2, 1)
            METER.release(curv[l])
        if tan is not None:
            METER.release(tan)
        for i in range(1, width):
            hess[:, i, :i] = hess[:, :i, i]
        return hess, acts

    def hess_state(self, theta, y):
        """Full second derivative d2H/dy2, shape [..., 2d, 2d].

        The closed form of _hess_and_tape: one forward pass, one reverse
        sweep and the 2d input tangents carried forward together.  The upper
        triangle is mirrored, so the result is exactly symmetric.
        """
        y2, single = _as_batch(y, self.arch[0])
        hess, acts = self._hess_and_tape(self.unpack(theta), y2)
        self._drop(acts)
        return hess[0] if single else hess

    def field_vjp(self, layers, acts, u, need_params):
        """Reverse through one recorded field evaluation.

        Given the cotangent u on f(y) = (dH/dp, -dH/dq) and the activations
        recorded when f was evaluated, returns (ybar, thetabar):

            ybar     = (df/dy)^T u     = d2H/dy2 caught along w = (-u_p, u_q)
            thetabar = (df/dtheta)^T u summed over the batch

        This is the workhorse of the backprop-through-solver engine.
        """
        w_dir = costate_to_direction(u, self.dim)
        return self._mixed(layers, acts, w_dir, need_state=True, need_params=need_params)


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
    """Read a checkpoint pair back; returns (net, theta, header)."""
    header_path = pathlib.Path(header_path)
    with open(header_path, encoding="utf-8") as fh:
        header = json.load(fh)
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    arch = tuple(header["arch"])
    if len(arch) < 2 or arch[-1] != 1 or arch[0] % 2 != 0:
        raise ValueError(f"checkpoint arch {arch} is not a scalar network over phase space")
    net = HamiltonianNet(arch[0] // 2, hidden=arch[1:-1])
    if net.n_params != header["param_count"]:
        raise ValueError(
            f"header param_count {header['param_count']} does not match arch {arch}"
        )
    bin_path = header_path.parent / header["data_file"]
    theta = np.fromfile(bin_path, dtype="<f8")
    if theta.shape != (net.n_params,):
        raise ValueError(
            f"parameter file holds {theta.size} values, arch {arch} needs {net.n_params}"
        )
    return net, theta, header
