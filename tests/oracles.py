"""Independent reference implementations the tests check the package against.

Deliberately naive: explicit Python loops, no code shared with the package,
so an engine bug cannot hide inside its own oracle.  Slow is fine here.
"""

import numpy as np


# ----------------------------------------------------------------------
# naive network forward pass (duplicates the documented parameter layout:
# per layer, row-major weight matrix then bias; hidden tanh, output linear)


def naive_unpack(theta, arch):
    layers = []
    pos = 0
    for n_in, n_out in zip(arch[:-1], arch[1:]):
        w = np.array(theta[pos:pos + n_in * n_out]).reshape(n_in, n_out)
        pos += n_in * n_out
        b = np.array(theta[pos:pos + n_out])
        pos += n_out
        layers.append((w, b))
    assert pos == len(theta)
    return layers


def naive_h(theta, arch, point):
    """Scalar energy of one phase point, computed with explicit loops."""
    layers = naive_unpack(theta, arch)
    a = [float(v) for v in point]
    for l, (w, b) in enumerate(layers):
        n_in, n_out = w.shape
        z = []
        for j in range(n_out):
            acc = b[j]
            for i in range(n_in):
                acc += a[i] * w[i, j]
            z.append(acc)
        if l < len(layers) - 1:
            a = [np.tanh(v) for v in z]
        else:
            a = z
    assert len(a) == 1
    return float(a[0])


def naive_tangent_reverse(theta, arch, y, w_dir):
    """Reference tangent-over-reverse sweep through the network at a batch y.

    Carries the tangent ydot_0 = w_dir forward through every layer, keeping
    each pre-activation tangent zt_l, so the output tangent is
    T = <w_dir, dH/dy> per row; then reverses sum(T) through primal and
    tangent together, starting from cotangent 0 on the output and 1 on its
    tangent.  Returns (dT/dy [B, 2d], dT/dtheta summed over the batch, flat
    in the parameter layout).
    """
    layers = naive_unpack(theta, arch)
    last = len(layers) - 1
    acts = [np.asarray(y, dtype=np.float64)]
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if l < last else z)
    tans = [np.asarray(w_dir, dtype=np.float64)]
    zts = []
    for l, (w, _) in enumerate(layers):
        zt = tans[-1] @ w
        zts.append(zt)
        tans.append((1.0 - acts[l + 1] ** 2) * zt if l < last else zt)

    s = np.zeros_like(acts[-1])      # cotangent on a_l
    r = np.ones_like(tans[-1])       # cotangent on adot_l
    grads = [None] * len(layers)
    for l in range(last, -1, -1):
        w, _ = layers[l]
        if l < last:
            a_next = acts[l + 1]
            sp = 1.0 - a_next ** 2
            gz = s * sp + r * (-2.0 * a_next * sp * zts[l])
            gzt = r * sp
        else:
            gz = s
            gzt = r
        grads[l] = np.concatenate([(acts[l].T @ gz + tans[l].T @ gzt).ravel(),
                                   gz.sum(axis=0)])
        s = gz @ w.T
        r = gzt @ w.T
    return s, np.concatenate(grads)


# ----------------------------------------------------------------------
# finite differencing


def central_diff(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (fn(up) - fn(dn)) / (2.0 * eps)
    return g


def fd_jacobian(step_fn, y, eps=1e-6):
    """Central-difference Jacobian of a map R^n -> R^n."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    jac = np.empty((n, n))
    for k in range(n):
        up = y.copy()
        dn = y.copy()
        up[k] += eps
        dn[k] -= eps
        jac[:, k] = (np.asarray(step_fn(up)) - np.asarray(step_fn(dn))) / (2.0 * eps)
    return jac


def fd_hessian(fn, x, eps=1e-4):
    """Second differences of a scalar function, symmetric stencil."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            pp = x.copy(); pp[i] += eps; pp[j] += eps
            pm = x.copy(); pm[i] += eps; pm[j] -= eps
            mp = x.copy(); mp[i] -= eps; mp[j] += eps
            mm = x.copy(); mm[i] -= eps; mm[j] -= eps
            hess[i, j] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4.0 * eps * eps)
    return hess


# ----------------------------------------------------------------------
# symplectic structure


def canonical_j(dim):
    """The block matrix [[0, I], [-I, 0]] of size 2*dim."""
    j = np.zeros((2 * dim, 2 * dim))
    j[:dim, dim:] = np.eye(dim)
    j[dim:, :dim] = -np.eye(dim)
    return j


def midpoint_linear_exact(a_matrix, y, h):
    """Exact implicit midpoint step for a linear field f(y) = A y:
    solve (I - h/2 A) y' = (I + h/2 A) y directly."""
    n = a_matrix.shape[0]
    lhs = np.eye(n) - 0.5 * h * a_matrix
    rhs = (np.eye(n) + 0.5 * h * a_matrix) @ np.asarray(y, dtype=np.float64)
    return np.linalg.solve(lhs, rhs)


# three-stage Lobatto pair (IIIA for positions, IIIB for momenta): a classic
# symplectic pair with unequal weights, which pins the orientation of the
# transposed term in the coupling condition
LOBATTO3_A_Q = np.array([
    [0.0, 0.0, 0.0],
    [5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
])
LOBATTO3_A_P = np.array([
    [1.0 / 6.0, -1.0 / 6.0, 0.0],
    [1.0 / 6.0, 1.0 / 3.0, 0.0],
    [1.0 / 6.0, 5.0 / 6.0, 0.0],
])
LOBATTO3_B = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])


# ----------------------------------------------------------------------
# tiny closed-form systems


def sho_field(y):
    """Unit simple harmonic oscillator, f(q, p) = (p, -q), batched or not."""
    y = np.asarray(y, dtype=np.float64)
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def sho_energy(y):
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * (y[..., 0] ** 2 + y[..., 1] ** 2)


def sho_exact(y0, t):
    """Rotation by angle t in the (q, p) plane."""
    q0, p0 = y0
    return np.array([q0 * np.cos(t) + p0 * np.sin(t),
                     -q0 * np.sin(t) + p0 * np.cos(t)])
