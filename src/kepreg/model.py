"""The perturbation, regularized Hamiltonians and vector fields.

The perturbation is one object, ``Perturbation``: the Fourier series of
a T-periodic forcing p(t) and U(t, u) = <p(t), u>.  The field and
``averaging`` both take it.

The extended regularized state is a flat array

    2D: X = (zx, zy, wx, wy, t, tau)            (6 components)
    3D: X = (z0..z3, w0..w3, t, tau)            (10 components)

with t the *lifted* (unreduced) time; reduction modulo the forcing
period happens only when a perturbation is evaluated.  The regularized
energy is

    K_eps(X) = tau |z|^2 + |w|^2 / 8 - 1 - eps * P(t, z)

with P(t, z) = |z|^2 U(t, u(z)) and u(z) the Levi-Civita
(2D) or Kustaanheimo-Stiefel (3D) position.  The same -eps*P sign is
used in both dimensions so that both reduce to the same physical
equation.
"""

import numpy as np

from .algebra import i_mul

__all__ = [
    "Perturbation",
    "zero_perturbation",
    "pack_state",
    "unpack_state",
    "state_dim",
    "position",
    "position_jacobian",
    "reg_energy",
    "reg_field",
    "reg_field_jacobian",
    "bl_value",
    "bl_gradient",
    "group_direction",
    "group_rotation_matrix",
    "I_MUL_MATRIX",
    "state_position",
    "state_velocity",
    "state_energy",
    "physical_field",
    "physical_energy",
]


class Perturbation:
    """The linear forcing U(t, u) = <p(t), u>, smooth and T-periodic, with
    p(t) = const + sum_h cos[h-1] cos(f_h t) + sin[h-1] sin(f_h t) a
    truncated real Fourier series, f_h = 2 pi h / period = ``freq``[h-1];
    a missing row of cos or sin is zero.

    It is the one kind of U the package runs, and ``evaluate`` is the
    only way U is evaluated.  U is smooth at u = 0, as it must be: the
    regularized energy carries it as |z|^2 U(t, u(z)), and regularized
    orbits evaluate it through their collisions, at u = 0.  ``jet``
    gives p, p' and p'' from one cos and one sin of the phases; the mean
    of p is ``const``, read off exactly rather than estimated by
    quadrature.
    """

    def __init__(self, period, const, cos=None, sin=None,
                 name="forced_kepler"):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)
        self.name = name
        self.const = np.asarray(const, float)
        self.cos = np.asarray(cos, float) if cos is not None else \
            np.zeros((0, self.const.size))
        self.sin = np.asarray(sin, float) if sin is not None else \
            np.zeros((0, self.const.size))
        if self.cos.shape[1:] != self.const.shape or \
                self.sin.shape[1:] != self.const.shape:
            raise ValueError("coefficient shapes do not match")
        n, N = max(len(self.cos), len(self.sin)), self.dim
        self.freq = 2.0 * np.pi / self.period * np.arange(1, n + 1)
        C = np.zeros((n, N))
        C[: len(self.cos)] = self.cos
        S = np.zeros((n, N))
        S[: len(self.sin)] = self.sin
        f = self.freq[:, None]
        # rows: cos and sin of the phases; columns: p, p' and p''
        self._coef = np.block([[C, f * S, -f ** 2 * C],
                               [S, -f * C, -f ** 2 * S]])
        self._jet0 = np.zeros((3, N))
        self._jet0[0] = self.const

    @property
    def dim(self):
        return self.const.size

    def jet(self, t):
        """p, p' and p'' at t, stacked as (..., 3, N)."""
        phase = np.multiply.outer(t, self.freq)
        series = np.concatenate([np.cos(phase), np.sin(phase)],
                                axis=-1) @ self._coef
        return self._jet0 + series.reshape(series.shape[:-1] + (3, self.dim))

    def evaluate(self, t, u):
        """(U, grad_u U, dU/dt, d/dt grad_u U, d^2U/dt^2) at t of shape S
        and u of shape S + (N,), from one jet of p at t modulo the period.

        U is linear in u, so its Hessian in u vanishes, grad_u U = p(t),
        d/dt grad_u U = p'(t) and d^2U/dt^2 = <p''(t), u>.
        """
        T = self.period
        jet = self.jet(t - T * np.floor(t / T))
        vals = np.matvec(jet, np.asarray(u, float))
        return (vals[..., 0], jet[..., 0, :], vals[..., 1], jet[..., 1, :],
                vals[..., 2])


def zero_perturbation(period, dim):
    """The trivial U = 0, for unperturbed runs."""
    return Perturbation(period, np.zeros(dim), name="zero")


# ---------------------------------------------------------------------------
# state layout helpers

def state_dim(dim):
    """Length of the regularized state vector for physical dimension N."""
    if dim == 2:
        return 6
    if dim == 3:
        return 10
    raise ValueError("dimension must be 2 or 3")


def pack_state(z, w, t, tau):
    """The state (z, w, t, tau): (D,) for one z and w, or (..., D) for
    stacks (..., zd), with t and tau broadcasting to the stack shape."""
    z, w = np.asarray(z, float), np.asarray(w, float)
    t, tau = (np.broadcast_to(x, z.shape[:-1])[..., None] for x in (t, tau))
    return np.concatenate([z, w, t, tau], axis=-1)


def unpack_state(X):
    """(z, w, t, tau) views of a state (D,) or a stack of states (..., D);
    t and tau have the shape of the stack, 0-d for one state."""
    X = np.asarray(X, float)
    zd = (X.shape[-1] - 2) // 2
    return X[..., :zd], X[..., zd:2 * zd], X[..., 2 * zd], X[..., 2 * zd + 1]


_B2 = np.array([[[2.0, 0.0], [0.0, -2.0]],
                [[0.0, 2.0], [2.0, 0.0]]])
_B3 = np.zeros((3, 4, 4))
_B3[0] = np.diag([2.0, 2.0, -2.0, -2.0])
_B3[1][1, 2] = _B3[1][2, 1] = 2.0
_B3[1][0, 3] = _B3[1][3, 0] = -2.0
_B3[2][1, 3] = _B3[2][3, 1] = 2.0
_B3[2][0, 2] = _B3[2][2, 0] = 2.0


def _position_hessians(zd):
    """Constant tensors B[k] with B[k][i, j] = d^2 u_k / d z_i d z_j."""
    return _B2 if zd == 2 else _B3


# Each row of every B[k] holds one entry, +-2: its column and its value
_B_GATHER = {len(B[0]): (np.argmax(B != 0.0, axis=-1), B.sum(axis=-1))
             for B in (_B2, _B3)}


def position_jacobian(z):
    """Jacobian A with A[k, i] = d u_k / d z_i, for z (zd,) or (..., zd).

    u is quadratic in z, so A[k] = B[k] z, an exact gather.  ``take``
    returns A C-contiguous, and so ``np.matvec`` sums A z as it sums a
    matvec-built A (the sum of a strided A can differ in the last bit).
    """
    z = np.asarray(z, float)
    cols, vals = _B_GATHER[z.shape[-1]]
    return z.take(cols, axis=-1) * vals


def position(z):
    """Physical position u for a regularized coordinate z (LC or KS).

    u_k = z^T B[k] z / 2: the Levi-Civita square z^2 in 2D and the
    Kustaanheimo-Stiefel map conj(z) i z in 3D.  z may be a stack.
    """
    z = np.asarray(z, float)
    return 0.5 * np.matvec(position_jacobian(z), z)


# ---------------------------------------------------------------------------
# regularized Hamiltonian and field
#
# reg_field, reg_energy_gradient and reg_field_jacobian take one state
# (D,) or a stack of states (m, D) and return (..., D), or (..., D) and
# (..., D, D).  All three go through one kernel, ``_kernel``, which
# evaluates the perturbation once for the whole stack and computes each
# piece of the field once: |z|^2, the position Jacobian A and u(z), A^T
# grad U, and the coefficient 2 (eps U - tau) of z in w'.  F is
# assembled from those pieces.  The Jacobian reuses them and adds
# A^T d/dt grad U and the curvature sum_k g_k B_k of U(t, u(z)) in z
# (U is linear in u, so there is no A^T H A term), starting from a
# constant template that holds its I/4 block.

def _evaluate(pert, eps, t, u):
    """``pert.evaluate(t, u)`` at a nonzero eps, which needs a pert."""
    if pert is None:
        raise ValueError(f"eps = {eps} needs a perturbation, but pert is None")
    return pert.evaluate(t, u)


def reg_energy(X, eps, pert):
    """Extended regularized Hamiltonian K_eps(X), scalar or (m,)."""
    z, w, t, tau = unpack_state(X)
    r2 = np.vecdot(z, z)
    K = tau * r2 + np.vecdot(w, w) / 8.0 - 1.0
    if eps != 0.0:
        K = K - eps * r2 * _evaluate(pert, eps, t, position(z))[0]
    return K


def _jacobian_template(zd):
    """DF's constant part: the I/4 block dz'/dw, zeros elsewhere."""
    D = 2 * zd + 2
    J = np.zeros((D, D))
    J[:zd, zd:2 * zd] = np.eye(zd) / 4.0
    return J


_J_TEMPLATE = {zd: _jacobian_template(zd) for zd in (2, 4)}
# B reshaped so that g @ _B_FLAT[zd] is sum_k g_k B[k], flattened
_B_FLAT = {len(B[0]): B.reshape(len(B), -1) for B in (_B2, _B3)}


def _kernel(X, eps, pert, jacobian):
    """F(X), and with ``jacobian`` the pair (F, DF(X)).

    F is w' = (2 eps U - 2 tau) z + eps |z|^2 A^T grad U and
    tau' = eps |z|^2 dU/dt beside z' = w/4 and t' = |z|^2.  DF's (w, z)
    block is (2 eps U - 2 tau) I + eps (2 (z Ag^T + Ag z^T) + |z|^2 curv)
    with Ag = A^T grad U and curv = sum_k g_k B[k], and its t column and
    tau row both hold eps (2 dU/dt z + |z|^2 A^T d/dt grad U).
    """
    X = np.asarray(X, float)
    zd = (X.shape[-1] - 2) // 2
    z = X[..., :zd]
    w, t, tau = X[..., zd:2 * zd], X[..., 2 * zd], X[..., 2 * zd + 1]
    r2 = np.vecdot(z, z)
    F = np.empty(X.shape)
    np.multiply(w, 0.25, out=F[..., :zd])
    F[..., 2 * zd] = r2
    Fw = F[..., zd:2 * zd]
    perturbed = eps != 0.0
    if perturbed:
        z = np.ascontiguousarray(z)
        A = position_jacobian(z)
        U, gU, Ut, gUt, Utt = _evaluate(pert, eps, t,
                                        0.5 * np.matvec(A, z))
        Ag = np.vecmat(gU, A)
        er2 = eps * r2
        c = 2.0 * (eps * U - tau)
        np.multiply(c[..., None], z, out=Fw)
        Fw += er2[..., None] * Ag
        np.multiply(er2, Ut, out=F[..., 2 * zd + 1])
    else:
        c = -2.0 * tau
        np.multiply(c[..., None], z, out=Fw)
        F[..., 2 * zd + 1] = 0.0
    if not jacobian:
        return F

    D = X.shape[-1]
    J = np.empty(X.shape + (D,))
    J[...] = _J_TEMPLATE[zd]
    np.multiply(z, -2.0, out=J[..., zd:2 * zd, 2 * zd + 1])
    np.multiply(z, 2.0, out=J[..., 2 * zd, :zd])
    if perturbed:
        curv = (gU @ _B_FLAT[zd]).reshape(X.shape[:-1] + (zd, zd))
        zAg = z[..., :, None] * Ag[..., None, :]
        Jwz = J[..., zd:2 * zd, :zd]
        np.multiply(er2[..., None, None], curv, out=Jwz)
        Jwz += (2.0 * eps) * (zAg + np.swapaxes(zAg, -1, -2))
        col = J[..., zd:2 * zd, 2 * zd]
        np.multiply((2.0 * eps * Ut)[..., None], z, out=col)
        col += er2[..., None] * np.vecmat(gUt, A)
        J[..., 2 * zd + 1, :zd] = col
        np.multiply(er2, Utt, out=J[..., 2 * zd + 1, 2 * zd])
    # the diagonal of the (w, z) block, a strided view of flat J
    diag = J.reshape(X.shape[:-1] + (D * D,))[
        ..., zd * D: zd * D + zd * (D + 1): D + 1]
    diag += c[..., None]
    return F, J


def reg_field(X, eps, pert=None):
    """Right-hand side of the regularized Hamiltonian system; pert may be
    left out only at eps = 0."""
    return _kernel(X, eps, pert, False)


def reg_energy_gradient(X, eps, pert=None):
    """Gradient of K_eps with respect to the state.

    The field is the Hamiltonian vector field of K_eps in (z, w) with
    the (t, tau) extension, so the gradient is the field rotated back:
    (-w', z', -tau', t').
    """
    F = _kernel(X, eps, pert, False)
    zd = (F.shape[-1] - 2) // 2
    G = np.empty(F.shape)
    np.negative(F[..., zd:2 * zd], out=G[..., :zd])
    G[..., zd:2 * zd] = F[..., :zd]
    G[..., 2 * zd] = -F[..., 2 * zd + 1]
    G[..., 2 * zd + 1] = F[..., 2 * zd]
    return G


def reg_field_jacobian(X, eps, pert=None):
    """The regularized field F(X) together with its exact Jacobian DF(X).

    Returns (F, J), F equal to ``reg_field(X, eps, pert)``, from one
    evaluation of the perturbation, which gives d/dt grad_u U and
    d^2U/dt^2 beside U, grad_u U and dU/dt.  U is linear in u, so it
    has no Hessian in u.  Everything else is assembled analytically.
    """
    return _kernel(X, eps, pert, True)


# ---------------------------------------------------------------------------
# 3D first integral and circle action

def bl_value(X):
    """First integral Re(conj(z) i w) of the spatial regularized system,
    scalar for one state (10,) and (m,) for a stack (m, 10)."""
    z, w, _, _ = unpack_state(X)
    if z.shape[-1] != 4:
        raise ValueError("bl_value is defined for 3D states only")
    z0, z1, z2, z3 = np.moveaxis(z, -1, 0)
    w0, w1, w2, w3 = np.moveaxis(w, -1, 0)
    return -z0 * w1 + z1 * w0 - z2 * w3 + z3 * w2


def bl_gradient(X):
    """Gradient of bl_value, (i w, -i z, 0, 0)."""
    z, w, _, _ = unpack_state(X)
    return pack_state(i_mul(w), -i_mul(z), 0.0, 0.0)


def group_direction(X):
    """Infinitesimal generator (i z, i w, 0, 0) of the circle action, for
    one 3D state (10,) or a stack (..., 10)."""
    z, w, _, _ = unpack_state(X)
    return pack_state(i_mul(z), i_mul(w), 0.0, 0.0)


# left multiplication q -> i q of a quaternion (1, i, j, k): column j is
# i times the unit e_j
I_MUL_MATRIX = i_mul(np.eye(4)).T


def group_rotation_matrix(theta):
    """Matrix of X -> (g z, g w, t, tau) with g = cos(theta) + i sin(theta):
    (10, 10) for one theta, (..., 10, 10) for an array of them."""
    theta = np.asarray(theta, float)[..., None, None]
    g = np.cos(theta) * np.eye(4) + np.sin(theta) * I_MUL_MATRIX
    R = np.broadcast_to(np.eye(10), g.shape[:-2] + (10, 10)).copy()
    R[..., :4, :4] = g
    R[..., 4:8, 4:8] = g
    return R


# ---------------------------------------------------------------------------
# physical quantities of regularized states
#
# Like the field, these take one state (D,) or a stack (..., D).

def state_position(X):
    """Physical position u(z) of a state or a stack of states."""
    return position(unpack_state(X)[0])


def state_velocity(X):
    """Physical velocity du/dt = A w / (4 |z|^2); diverges at a collision."""
    z, w, _, _ = unpack_state(X)
    r2 = np.vecdot(z, z)[..., None]
    return np.matvec(position_jacobian(z), w) / (4.0 * r2)


def state_energy(X, eps, pert):
    """Physical energy E = -tau + eps U(t, u(z)).

    On the level set K_eps = 0 it equals the Kepler energy
    ``physical_energy(u, v)``, and unlike that it stays finite through
    a collision.
    """
    z, _, t, tau = unpack_state(X)
    E = -tau
    if eps != 0.0:
        E = E + eps * _evaluate(pert, eps, t, position(z))[0]
    return E


# ---------------------------------------------------------------------------
# physical-space system

def physical_field(t, y, eps, pert):
    """Right-hand side (v, -u/|u|^3 + eps grad U) of the physical system.

    y = (u, v) has shape (2N,) or (..., 2N) and t the shape of y
    without its last axis.
    """
    y = np.asarray(y, float)
    n = y.shape[-1] // 2
    u, v = y[..., :n], y[..., n:]
    r = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise ValueError("physical field is singular at u = 0")
    acc = -u / r ** 3
    if eps != 0.0:
        acc = acc + eps * _evaluate(pert, eps, t, u)[1]
    return np.concatenate([v, acc], axis=-1)


def physical_energy(u, v):
    """Kepler energy |v|^2 / 2 - 1 / |u|, for (N,) or stacked (..., N)."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return 0.5 * np.vecdot(v, v) - 1.0 / np.linalg.norm(u, axis=-1)
