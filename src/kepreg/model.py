"""Perturbations, regularized Hamiltonians and vector fields.

The extended regularized state is a flat array

    2D: X = (zx, zy, wx, wy, t, tau)            (6 components)
    3D: X = (z0..z3, w0..w3, t, tau)            (10 components)

with t the *lifted* (unreduced) time; reduction modulo the forcing
period happens only when a perturbation is evaluated.  The regularized
energy is

    K_eps(X) = tau |z|^2 + |w|^2 / 8 - 1 - eps * P(t, z, eps)

with P(t, z, eps) = |z|^2 U(t, u(z), eps) and u(z) the Levi-Civita
(2D) or Kustaanheimo-Stiefel (3D) position.  The same -eps*P sign is
used in both dimensions so that both reduce to the same physical
equation.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "Perturbation",
    "PerturbationError",
    "PerturbationValues",
    "zero_perturbation",
    "forced_kepler",
    "fatou",
    "ForcingSpec",
    "check_regularizable",
    "pack_state",
    "unpack_state",
    "state_dim",
    "space_dim",
    "position",
    "position_jacobian",
    "reg_energy",
    "reg_field",
    "reg_field_jacobian",
    "variational_field",
    "variational_field_unperturbed",
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


# relative step of the central differences that stand in for second
# derivatives a callable-built perturbation does not provide
FD_STEP = 1e-6


class PerturbationError(ValueError):
    """Raised when a perturbation fails its derivative self-check."""


class PerturbationValues(NamedTuple):
    """U and its derivatives at one point or a stack of points.

    ``value``, ``dt`` and ``dt2`` have the shape of t, the u-vectors
    ``grad`` and ``grad_dt`` and the Hessian ``hess`` add one or two
    trailing axes of length N.  The second derivatives may be None
    unless requested; ``hess`` is None when U is affine in u, where it
    vanishes.
    """

    value: np.ndarray
    grad: np.ndarray
    dt: np.ndarray
    hess: np.ndarray = None
    grad_dt: np.ndarray = None
    dt2: np.ndarray = None


class Perturbation:
    """Evaluator bundle for a smooth T-periodic force function U.

    Parameters
    ----------
    period : float
        Forcing period T.
    value, grad_u, dt : callables
        value(t, u, eps) -> scalar, grad_u(t, u, eps) -> (N,) array,
        dt(t, u, eps) -> scalar.  They are called with t already
        reduced modulo T and must be pure functions.
    smooth_at_origin : bool
        Whether U extends smoothly to u = 0; perturbations with
        singularities at the origin cannot be used in regularized runs.
    """

    def __init__(self, period, value, grad_u, dt, smooth_at_origin=True,
                 name="custom", params=None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)
        self._value = value
        self._grad_u = grad_u
        self._dt = dt
        self.smooth_at_origin = bool(smooth_at_origin)
        self.name = name
        self.params = dict(params or {})

    def _reduce(self, t):
        T = self.period
        return t - T * np.floor(t / T)

    def value(self, t, u, eps):
        return float(self._value(self._reduce(t), np.asarray(u, float), eps))

    def grad_u(self, t, u, eps):
        return np.asarray(self._grad_u(self._reduce(t), np.asarray(u, float), eps),
                          float)

    def dt(self, t, u, eps):
        return float(self._dt(self._reduce(t), np.asarray(u, float), eps))

    def evaluate(self, t, u, eps, second=False):
        """U, grad_u U and dU/dt at t of shape S and u of shape S + (N,).

        With ``second`` the Hessian in u, d/dt grad_u U and d^2U/dt^2
        are added.  The three callables give no second derivatives, so
        they are taken by central differences of grad_u and dt, point by
        point, with step FD_STEP * max(1, |u_i|) in u and
        FD_STEP * max(1, T) in t.
        """
        t = np.asarray(t, float)
        u = np.asarray(u, float)
        ts, us = t.reshape(-1), u.reshape(-1, u.shape[-1])
        value = np.array([self.value(ti, ui, eps) for ti, ui in zip(ts, us)])
        grad = np.array([self.grad_u(ti, ui, eps) for ti, ui in zip(ts, us)])
        dt = np.array([self.dt(ti, ui, eps) for ti, ui in zip(ts, us)])
        out = PerturbationValues(value.reshape(t.shape), grad.reshape(u.shape),
                                 dt.reshape(t.shape))
        if not second:
            return out
        hess, grad_dt, dt2 = zip(*(self._second_fd(ti, ui, eps)
                                   for ti, ui in zip(ts, us)))
        return out._replace(hess=np.reshape(hess, u.shape + u.shape[-1:]),
                            grad_dt=np.reshape(grad_dt, u.shape),
                            dt2=np.reshape(dt2, t.shape))

    def _second_fd(self, t, u, eps):
        n = u.size
        H = np.empty((n, n))
        for i in range(n):
            h = FD_STEP * max(1.0, abs(u[i]))
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            H[:, i] = (self.grad_u(t, up, eps) - self.grad_u(t, um, eps)) / (2 * h)
        H = 0.5 * (H + H.T)
        ht = FD_STEP * max(1.0, self.period)
        grad_dt = (self.grad_u(t + ht, u, eps)
                   - self.grad_u(t - ht, u, eps)) / (2 * ht)
        dt2 = (self.dt(t + ht, u, eps) - self.dt(t - ht, u, eps)) / (2 * ht)
        return H, grad_dt, dt2

    def self_check(self, points, eps=1e-3, rel_tol=1e-5):
        """Compare analytic derivatives with central differences.

        ``points`` is an iterable of (t, u) samples.  Raises
        PerturbationError when either grad_u or dt disagrees with the
        finite-difference value beyond ``rel_tol`` relative error.
        """
        for t, u in points:
            u = np.asarray(u, float)
            g = self.grad_u(t, u, eps)
            g_fd = np.empty_like(g)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u[i]))
                up = u.copy()
                um = u.copy()
                up[i] += h
                um[i] -= h
                g_fd[i] = (self.value(t, up, eps) - self.value(t, um, eps)) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(g)))
            if np.linalg.norm(g - g_fd) > rel_tol * scale:
                raise PerturbationError(
                    f"grad_u of '{self.name}' disagrees with finite differences "
                    f"at t={t}, u={u}: {g} vs {g_fd}")
            ht = 1e-6 * max(1.0, self.period)
            d_fd = (self.value(t + ht, u, eps) - self.value(t - ht, u, eps)) / (2 * ht)
            d = self.dt(t, u, eps)
            if abs(d - d_fd) > rel_tol * max(1.0, abs(d)):
                raise PerturbationError(
                    f"dt of '{self.name}' disagrees with finite differences "
                    f"at t={t}, u={u}: {d} vs {d_fd}")
        return True


def zero_perturbation(period=2.0 * np.pi, dim=2):
    """The trivial U = 0, for unperturbed runs."""
    n = dim
    return Perturbation(
        period,
        lambda t, u, eps: 0.0,
        lambda t, u, eps: np.zeros(n),
        lambda t, u, eps: 0.0,
        name="zero",
        params={"dim": dim},
    )


class ForcingSpec:
    """T-periodic N-vector forcing p(t) as a truncated real Fourier series.

    Evaluates at a scalar t or an array of times, from one cos and one
    sin of the harmonic phases.  The mean is the constant coefficient,
    read off exactly rather than estimated by quadrature.
    """

    def __init__(self, period, const, cos=None, sin=None):
        self.period = float(period)
        self.const = np.asarray(const, float)
        self.cos = np.asarray(cos, float) if cos is not None else \
            np.zeros((0, self.const.size))
        self.sin = np.asarray(sin, float) if sin is not None else \
            np.zeros((0, self.const.size))
        if self.cos.shape[1:] != self.const.shape or \
                self.sin.shape[1:] != self.const.shape:
            raise ValueError("coefficient shapes do not match")
        n, N = max(len(self.cos), len(self.sin)), self.dim
        self._freq = 2.0 * np.pi / self.period * np.arange(1, n + 1)
        C = np.zeros((n, N))
        C[: len(self.cos)] = self.cos
        S = np.zeros((n, N))
        S[: len(self.sin)] = self.sin
        f = self._freq[:, None]
        # rows: cos and sin of the phases; columns: p, p' and p''
        self._coef = np.block([[C, f * S, -f ** 2 * C],
                               [S, -f * C, -f ** 2 * S]])
        self._jet0 = np.zeros((3, N))
        self._jet0[0] = self.const

    @property
    def dim(self):
        return self.const.size

    def _basis(self, t):
        phase = np.multiply.outer(t, self._freq)
        return np.concatenate([np.cos(phase), np.sin(phase)], axis=-1)

    def __call__(self, t):
        return self.const + self._basis(t) @ self._coef[:, : self.dim]

    def jet(self, t):
        """p, p' and p'' at t, stacked as (..., 3, N)."""
        series = self._basis(t) @ self._coef
        return self._jet0 + series.reshape(series.shape[:-1] + (3, self.dim))

    def mean(self):
        return self.const.copy()


class _LinearForcing(Perturbation):
    """U(t, u) = <p(t), u>, with every derivative in closed form.

    U is linear in u, so the Hessian vanishes, d/dt grad_u U = p'(t)
    and d^2U/dt^2 = <p''(t), u>.
    """

    def __init__(self, forcing):
        p = forcing
        super().__init__(
            p.period,
            lambda t, u, eps: float(np.dot(p(t), u)),
            lambda t, u, eps: p(t),
            lambda t, u, eps: float(np.dot(p.jet(t)[1], u)),
            name="forced_kepler",
            params={"dim": p.dim},
        )
        self.forcing = p

    def evaluate(self, t, u, eps, second=False):
        jet = self.forcing.jet(self._reduce(t))
        vals = np.matvec(jet, np.asarray(u, float))
        return PerturbationValues(value=vals[..., 0], grad=jet[..., 0, :],
                                  dt=vals[..., 1], grad_dt=jet[..., 1, :],
                                  dt2=vals[..., 2])


def forced_kepler(period, const=None, cos=None, sin=None, dim=2):
    """Linear forcing U(t, u) = <p(t), u> with p a truncated Fourier series."""
    if const is None:
        const = np.zeros(dim)
    p = ForcingSpec(period, const, cos, sin)
    if p.dim != dim:
        raise ValueError("forcing coefficients must have length dim")
    return _LinearForcing(p)


def fatou(k_prime, h_prime, n_prime, gamma=0.0):
    """Fatou's rotating-body potential (planar, singular at the origin).

    U = k'/r^3 + h'/r^5 [ (u1^2-u2^2) cos(2(n't+gamma))
                          + 2 u1 u2 sin(2(n't+gamma)) ].

    Periodic with period pi/n'.  Not smooth at u = 0, hence unusable
    for regularized runs.
    """
    if n_prime <= 0:
        raise ValueError("n_prime must be positive")

    def _phase(t):
        return 2.0 * (n_prime * t + gamma)

    def value(t, u, eps):
        r2 = float(np.dot(u, u))
        r = np.sqrt(r2)
        c, s = np.cos(_phase(t)), np.sin(_phase(t))
        quad = (u[0] ** 2 - u[1] ** 2) * c + 2.0 * u[0] * u[1] * s
        return k_prime / r ** 3 + h_prime * quad / r ** 5

    def grad_u(t, u, eps):
        r2 = float(np.dot(u, u))
        r = np.sqrt(r2)
        c, s = np.cos(_phase(t)), np.sin(_phase(t))
        quad = (u[0] ** 2 - u[1] ** 2) * c + 2.0 * u[0] * u[1] * s
        g = np.array([2.0 * u[0] * c + 2.0 * u[1] * s,
                      -2.0 * u[1] * c + 2.0 * u[0] * s])
        return (-3.0 * k_prime / r ** 5) * u + h_prime * g / r ** 5 \
            - 5.0 * h_prime * quad * u / r ** 7

    def dt(t, u, eps):
        r = np.sqrt(float(np.dot(u, u)))
        c, s = np.cos(_phase(t)), np.sin(_phase(t))
        return 2.0 * n_prime * h_prime * (
            -(u[0] ** 2 - u[1] ** 2) * s + 2.0 * u[0] * u[1] * c) / r ** 5

    return Perturbation(
        np.pi / n_prime, value, grad_u, dt,
        smooth_at_origin=False, name="fatou",
        params={"k_prime": k_prime, "h_prime": h_prime,
                "n_prime": n_prime, "gamma": gamma})


# ---------------------------------------------------------------------------
# state layout helpers

def space_dim(X):
    """Physical dimension N (2 or 3) of a regularized state vector."""
    if len(X) == 6:
        return 2
    if len(X) == 10:
        return 3
    raise ValueError(f"regularized state must have 6 or 10 components, "
                     f"got {len(X)}")


def state_dim(dim):
    """Length of the regularized state vector for physical dimension N."""
    if dim == 2:
        return 6
    if dim == 3:
        return 10
    raise ValueError("dimension must be 2 or 3")


def pack_state(z, w, t, tau):
    return np.concatenate([np.atleast_1d(z), np.atleast_1d(w),
                           [float(t)], [float(tau)]])


def unpack_state(X):
    X = np.asarray(X, float)
    zd = (len(X) - 2) // 2
    return X[:zd], X[zd:2 * zd], float(X[2 * zd]), float(X[2 * zd + 1])


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


def position_jacobian(z):
    """Jacobian A with A[k, i] = d u_k / d z_i, for z (zd,) or (..., zd).

    u is quadratic in z, so A[k] = B[k] z.
    """
    z = np.asarray(z, float)
    return np.matvec(_position_hessians(z.shape[-1]), z[..., None, :])


def position(z):
    """Physical position u for a regularized coordinate z (LC or KS).

    u_k = z^T B[k] z / 2: the Levi-Civita square z^2 in 2D and the
    Kustaanheimo-Stiefel map conj(z) i z in 3D.  z may be a stack.
    """
    z = np.asarray(z, float)
    return 0.5 * np.matvec(position_jacobian(z), z)


def check_regularizable(pert):
    if not pert.smooth_at_origin:
        raise ValueError(
            f"perturbation '{pert.name}' is singular at the origin and "
            "cannot be used in a regularized run")


# ---------------------------------------------------------------------------
# regularized Hamiltonian and field
#
# reg_field, reg_energy_gradient and reg_field_jacobian take one state
# (D,) or a stack of states (m, D) and return (..., D) or (..., D, D).
# Each call evaluates the perturbation once, for the whole stack.

def _split(X):
    """(z, w, t, tau) views of a state (D,) or a stack of states (..., D)."""
    zd = (X.shape[-1] - 2) // 2
    return X[..., :zd], X[..., zd:2 * zd], X[..., 2 * zd], X[..., 2 * zd + 1]


def _perturbation_at(z, t, eps, pert, second=False):
    """U at (t, u(z)) and the position Jacobian A at z."""
    check_regularizable(pert)
    A = position_jacobian(z)
    u = 0.5 * np.matvec(A, z)           # position(z), reusing A
    return pert.evaluate(t, u, eps, second), A


def _grad_z_P(z, A, ev):
    """Gradient of P(t, z) = |z|^2 U(t, u(z)) with respect to z.

    ``A`` is position_jacobian(z) and ``ev`` the evaluation of U at
    (t, position(z)).
    """
    return (2.0 * ev.value[..., None] * z
            + np.vecdot(z, z)[..., None] * np.vecmat(ev.grad, A))


def reg_energy(X, eps, pert):
    """Extended regularized Hamiltonian K_eps(X), scalar or (m,)."""
    z, w, t, tau = _split(np.asarray(X, float))
    r2 = np.vecdot(z, z)
    K = tau * r2 + np.vecdot(w, w) / 8.0 - 1.0
    if eps != 0.0:
        ev, _ = _perturbation_at(z, t, eps, pert)
        K = K - eps * r2 * ev.value
    return K


def reg_field(X, eps, pert=None):
    """Right-hand side of the regularized Hamiltonian system."""
    X = np.asarray(X, float)
    z, w, t, tau = _split(X)
    zd = z.shape[-1]
    F = np.empty(X.shape)
    F[..., :zd] = w / 4.0
    F[..., zd:2 * zd] = (-2.0 * tau)[..., None] * z
    F[..., 2 * zd] = np.vecdot(z, z)
    F[..., 2 * zd + 1] = 0.0
    if eps != 0.0 and pert is not None:
        ev, A = _perturbation_at(z, t, eps, pert)
        F[..., zd:2 * zd] += eps * _grad_z_P(z, A, ev)
        F[..., 2 * zd + 1] = eps * F[..., 2 * zd] * ev.dt
    return F


def reg_energy_gradient(X, eps, pert=None):
    """Gradient of K_eps with respect to the state."""
    X = np.asarray(X, float)
    z, w, t, tau = _split(X)
    zd = z.shape[-1]
    G = np.empty(X.shape)
    G[..., :zd] = (2.0 * tau)[..., None] * z
    G[..., zd:2 * zd] = w / 4.0
    G[..., 2 * zd] = 0.0
    G[..., 2 * zd + 1] = np.vecdot(z, z)
    if eps != 0.0 and pert is not None:
        ev, A = _perturbation_at(z, t, eps, pert)
        G[..., :zd] -= eps * _grad_z_P(z, A, ev)
        G[..., 2 * zd] = -eps * G[..., 2 * zd + 1] * ev.dt
    return G


_EYE = {2: np.eye(2), 4: np.eye(4)}


def reg_field_jacobian(X, eps, pert=None):
    """Exact Jacobian DF(X) of the regularized field.

    The second derivatives of U come from ``pert.evaluate``: in closed
    form for forced_kepler, by central differences for perturbations
    built from callables.  Everything else is assembled analytically.
    """
    X = np.asarray(X, float)
    z, w, t, tau = _split(X)
    zd = z.shape[-1]
    eye = _EYE[zd]
    J = np.zeros(X.shape + X.shape[-1:])
    J[..., :zd, zd:2 * zd] = eye / 4.0
    J[..., zd:2 * zd, :zd] = (-2.0 * tau)[..., None, None] * eye
    J[..., zd:2 * zd, 2 * zd + 1] = -2.0 * z
    J[..., 2 * zd, :zd] = 2.0 * z
    if eps == 0.0 or pert is None:
        return J

    ev, A = _perturbation_at(z, t, eps, pert, second=True)
    r2 = np.vecdot(z, z)[..., None]
    Ag = np.vecmat(ev.grad, A)
    zAg = z[..., :, None] * Ag[..., None, :]
    # curvature of U(t, u(z)) in z: sum_k g_k B[k] + A^T H A
    B = _position_hessians(zd)
    curv = (ev.grad @ B.reshape(len(B), -1)).reshape(J.shape[:-2] + (zd, zd))
    if ev.hess is not None:
        curv = curv + np.swapaxes(A, -1, -2) @ ev.hess @ A
    Hp = (2.0 * (zAg + np.swapaxes(zAg, -1, -2))
          + (2.0 * ev.value)[..., None, None] * eye + r2[..., None] * curv)
    dgradP_dt = 2.0 * ev.dt[..., None] * z + r2 * np.vecmat(ev.grad_dt, A)

    J[..., zd:2 * zd, :zd] += eps * Hp
    J[..., zd:2 * zd, 2 * zd] = eps * dgradP_dt
    J[..., 2 * zd + 1, :zd] = eps * dgradP_dt
    J[..., 2 * zd + 1, 2 * zd] = eps * r2[..., 0] * ev.dt2
    return J


def variational_field(X, Y, eps, pert=None):
    """DF(X) . Y for the regularized field (any eps)."""
    return reg_field_jacobian(X, eps, pert) @ np.asarray(Y, float)


def variational_field_unperturbed(X, Y):
    """Linearized field along an unperturbed solution, in closed form.

    Valid only at eps = 0, where the linearization decouples as
    Y1' = Y2/4, Y2' = -2 tau Y1 - 2 z Y4, Y3' = 2 <z, Y1>, Y4' = 0.
    """
    z, _, _, tau = unpack_state(X)
    zd = z.size
    Y = np.asarray(Y, float)
    Y1, Y2 = Y[:zd], Y[zd:2 * zd]
    Y4 = Y[2 * zd + 1]
    return pack_state(Y2 / 4.0, -2.0 * tau * Y1 - 2.0 * z * Y4,
                      2.0 * float(np.dot(z, Y1)), 0.0)


# ---------------------------------------------------------------------------
# 3D first integral and circle action

def bl_value(X):
    """First integral Re(conj(z) i w) of the spatial regularized system,
    scalar for one state (10,) and (m,) for a stack (m, 10)."""
    z, w, _, _ = _split(np.asarray(X, float))
    if z.shape[-1] != 4:
        raise ValueError("bl_value is defined for 3D states only")
    z0, z1, z2, z3 = np.moveaxis(z, -1, 0)
    w0, w1, w2, w3 = np.moveaxis(w, -1, 0)
    return -z0 * w1 + z1 * w0 - z2 * w3 + z3 * w2


def bl_gradient(X):
    """Gradient of bl_value, (i w, -i z, 0, 0)."""
    from .algebra import i_mul
    z, w, _, _ = unpack_state(X)
    return pack_state(i_mul(w), -i_mul(z), 0.0, 0.0)


def group_direction(X):
    """Infinitesimal generator (i z, i w, 0, 0) of the circle action."""
    from .algebra import i_mul
    z, w, _, _ = unpack_state(X)
    return pack_state(i_mul(z), i_mul(w), 0.0, 0.0)


# left multiplication q -> i q of a quaternion (1, i, j, k)
I_MUL_MATRIX = np.array([[0.0, -1.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, -1.0],
                         [0.0, 0.0, 1.0, 0.0]])


def group_rotation_matrix(theta):
    """Matrix of X -> (g z, g w, t, tau) with g = cos(theta) + i sin(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    g = c * np.eye(4) + s * I_MUL_MATRIX
    R = np.eye(10)
    R[:4, :4] = g
    R[4:8, 4:8] = g
    return R


# ---------------------------------------------------------------------------
# physical quantities of regularized states
#
# Like the field, these take one state (D,) or a stack (..., D).

def state_position(X):
    """Physical position u(z) of a state or a stack of states."""
    return position(_split(np.asarray(X, float))[0])


def state_velocity(X):
    """Physical velocity du/dt = A w / (4 |z|^2); diverges at a collision."""
    z, w, _, _ = _split(np.asarray(X, float))
    r2 = np.vecdot(z, z)[..., None]
    return np.matvec(position_jacobian(z), w) / (4.0 * r2)


def state_energy(X, eps, pert):
    """Physical energy E = -tau + eps U(t, u(z)).

    On the level set K_eps = 0 it equals the Kepler energy
    ``physical_energy(u, v)``, and unlike that it stays finite through
    a collision.
    """
    z, _, t, tau = _split(np.asarray(X, float))
    E = -tau
    if eps != 0.0 and pert is not None:
        ev, _ = _perturbation_at(z, t, eps, pert)
        E = E + eps * ev.value
    return E


# ---------------------------------------------------------------------------
# physical-space system

def physical_field(t, y, eps, pert):
    """Right-hand side of the physical system, y = (u, v)."""
    y = np.asarray(y, float)
    n = y.size // 2
    u, v = y[:n], y[n:]
    r = float(np.linalg.norm(u))
    if r == 0.0:
        raise ValueError("physical field is singular at u = 0")
    acc = -u / r ** 3
    if eps != 0.0:
        acc = acc + eps * pert.grad_u(t, u, eps)
    return np.concatenate([v, acc])


def physical_energy(u, v):
    """Kepler energy |v|^2 / 2 - 1 / |u|, for (N,) or stacked (..., N)."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return 0.5 * np.vecdot(v, v) - 1.0 / np.linalg.norm(u, axis=-1)
