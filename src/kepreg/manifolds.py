"""Unperturbed periodic manifolds of the regularized Kepler flow.

For forcing period T and index k >= 1, the manifold of zero-energy
states with tau = tau_k = (sqrt(2) k pi / T)^(2/3) is filled by closed
orbits of common period S_k = 2 k pi sqrt(2 / tau_k).  Along them a
distinguished variational solution is closed-form, the oracle of the
numerical monodromy and the Weinstein-type non-degeneracy certificate.

At eps = 0 the field z' = w/4, w' = -2 tau z, t' = |z|^2, tau' = 0 is a
linear oscillator of frequency omega = sqrt(tau/2) plus a quadrature
for t, so its flow and fundamental matrix are closed-form for every
state with tau > 0, on M_k or off it (``closed_form_flow`` and
``closed_form_jacobian``).  Continuation seeds read the flow, and the
certificate its monodromy over S_k: nothing is integrated.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .algebra import lc_plane_basis

__all__ = [
    "ManifoldSpec",
    "ManifoldConstants",
    "SeedParams",
    "constants",
    "seed_state",
    "random_seed_params",
    "circular_seed_params",
    "rectilinear_seed_params",
    "closed_form_flow",
    "closed_form_variation",
    "closed_form_jacobian",
    "variation_start",
    "nondegeneracy_certificate",
    "degeneracy_index",
]

ON_MANIFOLD_TOL = 1e-10
RANK_TOL = 1e-8             # relative singular-value threshold of a rank


@dataclass(frozen=True)
class ManifoldSpec:
    k: int
    T: float
    dim: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("manifold index k must be >= 1")
        if self.T <= 0:
            raise ValueError("forcing period T must be positive")
        if self.dim not in (2, 3):
            raise ValueError("dimension must be 2 or 3")


@dataclass(frozen=True)
class ManifoldConstants:
    tau: float      # conjugate-time level tau_k
    omega: float    # angular frequency of z(s)
    sigma: float    # minimal period of z(s)
    S: float        # orbit period k * sigma


def constants(spec):
    """Manifold constants; k pi / (omega tau) reproduces T exactly."""
    tau = (np.sqrt(2.0) * spec.k * np.pi / spec.T) ** (2.0 / 3.0)
    omega = np.sqrt(tau / 2.0)
    sigma = 2.0 * np.pi / omega
    return ManifoldConstants(tau=tau, omega=omega, sigma=sigma,
                             S=spec.k * sigma)


@dataclass(frozen=True)
class SeedParams:
    """Angles selecting (z0, w0) on the sphere tau |z0|^2 + |w0|^2/8 = 1.

    |z0| = cos(psi)/sqrt(tau) and |w0| = sqrt(8) sin(psi); phi1/phi2 set
    the in-plane directions.  In 3D the planar data is embedded into the
    Levi-Civita plane spanned by the orthonormal ``plane`` columns.
    Each angle is one value, or an (n,) array for a stack of n seeds.
    """

    psi: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    t0: float = 0.0
    plane: object = None        # (4, 2) or (n, 4, 2) array for 3D seeds


def _planar_seed(spec, params):
    c = constants(spec)
    r = np.cos(params.psi) / np.sqrt(c.tau)
    rho = np.sqrt(8.0) * np.sin(params.psi)
    z0 = r[..., None] * np.stack([np.cos(params.phi1), np.sin(params.phi1)],
                                 axis=-1)
    w0 = rho[..., None] * np.stack([np.cos(params.phi2),
                                    np.sin(params.phi2)], axis=-1)
    return z0, w0


def seed_state(spec, params):
    """Initial state on the manifold; K_0 = 0 (and BL = 0 in 3D) hold
    by construction.  One state (D,) for scalar params, a stack (n, D)
    for params of (n,) arrays, each row the bits of its own call."""
    c = constants(spec)
    z0, w0 = _planar_seed(spec, params)
    if spec.dim == 3:
        plane = params.plane
        if plane is None:
            plane = np.column_stack([np.array([1.0, 0.0, 0.0, 0.0]),
                                     np.array([0.0, 0.0, 1.0, 0.0])])
        plane = np.asarray(plane, float)
        z0, w0 = np.matvec(plane, z0), np.matvec(plane, w0)
    return model.pack_state(z0, w0, params.t0, c.tau)


def random_seed_params(spec, rng):
    """Random SeedParams of one seed per generator: scalars for one
    generator, (n,) arrays and an (n, 4, 2) plane for a sequence of n.

    Each generator draws its seed before the next one, in the order: in
    3D a normal (4,) and the plane angle of ``lc_plane_basis``, then
    psi, phi1, phi2 in [0, 2 pi) and t0 in [0, T).  One generator passed
    n times thus draws the seeds of n single calls."""
    three_d = spec.dim == 3
    high = [2.0 * np.pi] * (3 + three_d) + [spec.T]
    single = isinstance(rng, np.random.Generator)
    draws = np.array([np.concatenate([g.standard_normal(4 * three_d),
                                      g.random(len(high))])
                      for g in ([rng] if single else rng)])
    # uniform(0, high) is 0 + high * random() and normal() is
    # 0 + 1 * standard_normal(): the same numbers, for a fifth of the
    # call cost (only an exact -0.0 normal draw would turn +0.0)
    draws[:, -len(high):] *= high
    if single:
        draws = draws[0]
    plane = None
    if three_d:
        plane = np.stack(lc_plane_basis(draws[..., :4], draws[..., 4]),
                         axis=-1)
    psi, phi1, phi2, t0 = np.moveaxis(draws[..., -4:], -1, 0)
    return SeedParams(psi=psi, phi1=phi1, phi2=phi2, t0=t0, plane=plane)


def circular_seed_params(spec):
    """Seed whose physical orbit is circular with radius 1/(2 tau_k)."""
    c = constants(spec)
    # |w0| = 4 omega |z0| and <z0, w0> = 0 make |z(s)| constant; on the
    # sphere parametrization this pins tan(psi) = 4 omega / sqrt(8 tau)
    psi = np.arctan2(4.0 * c.omega, np.sqrt(8.0 * c.tau))
    return SeedParams(psi=psi, phi1=0.0, phi2=np.pi / 2.0)


def rectilinear_seed_params(spec, t0=0.0, plane=None):
    """Seed with w0 = 0: a collision-bounce ray through the origin."""
    return SeedParams(psi=0.0, phi1=0.0, phi2=0.0, t0=t0, plane=plane)


def _check_on_manifold(spec, X0):
    """The constants of M_k, once X0 is checked on it."""
    c = constants(spec)
    _check_rows_on_manifold(c.tau, X0)
    return c


def _check_rows_on_manifold(tau_k, X):
    """Raise unless every state of X (D,) or (m, D) has tau = tau_k, one
    value or one per row, and K_0 = 0."""
    dtau = np.ravel(np.abs(np.asarray(X, float)[..., -1] - tau_k))
    K0 = np.ravel(model.reg_energy(X, 0.0, None))
    off = np.flatnonzero((dtau > ON_MANIFOLD_TOL)
                         | (np.abs(K0) > ON_MANIFOLD_TOL))
    if off.size:
        i = off[0]
        raise ValueError(
            f"state is off the manifold: |tau - tau_k| = {dtau[i]:.2e}, "
            f"K_0 = {K0[i]:.2e}")


def _per_row(spec, n):
    """The ManifoldSpec of each of n states and its constants: ``spec``
    is one ManifoldSpec for every state or a sequence of n."""
    specs = [spec] * n if isinstance(spec, ManifoldSpec) else list(spec)
    if len(specs) != n:
        raise ValueError(f"{len(specs)} manifold specs for {n} states")
    table = {s: constants(s) for s in set(specs)}
    return specs, [table[s] for s in specs]


def _omega(tau):
    """omega = sqrt(tau/2) of each state; a tau <= 0 or NaN raises."""
    if not np.all(tau > 0.0):
        raise ValueError("closed-form flow needs tau > 0 in every state")
    return np.sqrt(tau / 2.0)


def _time_integrals(om, s):
    """The integrals over [0, s] of cos^2, sin cos and sin^2 of om s."""
    int_cos2 = s / 2.0 + np.sin(2.0 * om * s) / (4.0 * om)
    int_sincos = np.sin(om * s) ** 2 / (2.0 * om)
    int_sin2 = s / 2.0 - np.sin(2.0 * om * s) / (4.0 * om)
    return int_cos2, int_sincos, int_sin2


def _time_weights(z0, w0, om):
    """(a2, ab, b2): |z|^2 = a2 cos^2 + ab sin cos + b2 sin^2 of om s."""
    return (np.vecdot(z0, z0), np.vecdot(z0, w0) / (2.0 * om),
            np.vecdot(w0, w0) / (16.0 * om * om))


def closed_form_flow(X0, s):
    """Exact solution Phi_s(X0) of the eps = 0 flow, on M_k or off it.

    z(s) = z0 cos(om s) + (w0 / 4 om) sin(om s), w(s) = 4 z'(s), tau
    frozen and t(s) by the analytic quadrature of |z|^2.  X0 is one
    state (D,) or a stack (..., D) and s broadcasts against its stack
    shape; returns the states (..., D).  Each state has its own
    omega = sqrt(tau/2), so a tau <= 0 raises ValueError.
    """
    z0, w0, t0, tau = model.unpack_state(X0)
    om = _omega(tau)
    s = np.asarray(s, float)
    a2, ab, b2 = _time_weights(z0, w0, om)
    i_cc, i_sc, i_ss = _time_integrals(om, s)
    t = (t0 + a2 * i_cc + ab * i_sc + b2 * i_ss)[..., None]
    cs, sn = np.cos(om * s)[..., None], np.sin(om * s)[..., None]
    om = om[..., None]
    z = z0 * cs + (w0 / (4.0 * om)) * sn
    w = -4.0 * om * z0 * sn + w0 * cs
    return np.concatenate([z, w, t, np.broadcast_to(tau[..., None], t.shape)],
                          axis=-1)


def variation_start(spec, X0):
    """The distinguished tangent vector Y* = (z0, 0, 0, -2 tau_k).

    X0 is one state (D,) or a stack (m, D); ``spec`` is one ManifoldSpec
    or, for a stack, a sequence of one per row.  Every state is checked
    on its manifold.
    """
    X0 = np.asarray(X0, float)
    stack = np.atleast_2d(X0)
    _, consts = _per_row(spec, len(stack))
    tau = np.array([c.tau for c in consts])
    _check_rows_on_manifold(tau, stack)
    Y = np.zeros(stack.shape)
    z, _, _, Y_tau = model.unpack_state(Y)      # views of Y
    z[:] = model.unpack_state(stack)[0]
    Y_tau[:] = -2.0 * tau
    return Y.reshape(X0.shape)


def closed_form_variation(spec, X0, s):
    """Exact linearized solution with initial value Y*.

    Along z(s) the solution collapses to Y1 = z - s z', Y2 = 2 tau s z,
    Y3 = 3 (t(s) - t0) - s |z(s)|^2, Y4 = -2 tau, which reproduces the
    endpoint values Y1(S) = z0 - (k pi / 2w) w0, Y2(S) = (4 k pi tau/w) z0
    and Y3(S) = (k pi / w)(-2 |z0|^2 + 3 / tau).
    """
    c = _check_on_manifold(spec, X0)
    z0, w0, t0, tau = model.unpack_state(X0)
    om = c.omega
    cs, sn = np.cos(om * s), np.sin(om * s)
    z = z0 * cs + (w0 / (4.0 * om)) * sn
    dz = -om * z0 * sn + (w0 / 4.0) * cs
    Y1 = z - s * dz
    Y2 = 2.0 * tau * s * z
    t = model.unpack_state(closed_form_flow(X0, s))[2]
    Y3 = 3.0 * (t - t0) - s * float(np.dot(z, z))
    return model.pack_state(Y1, Y2, Y3, -2.0 * tau)


def closed_form_jacobian(X0, s):
    """Exact Jacobian D Phi_s(X0) of the eps = 0 flow, on M_k or off it.

    X0 is one state (D,) or a stack (..., D) and s broadcasts against
    its stack shape; returns the (..., D, D) matrices.  Each state has
    its own omega = sqrt(tau/2), so a tau <= 0 raises ValueError.  The
    z and w columns are the oscillator's cos/sin blocks, the t row holds
    the integrals of the t quadrature, and the tau column adds the
    derivative in omega, through d omega / d tau = 1 / (4 omega).
    """
    z0, w0, _, tau = model.unpack_state(X0)
    om = _omega(tau)
    s = np.asarray(s, float)
    shape = np.broadcast_shapes(om.shape, s.shape)
    n = z0.shape[-1]
    cs, sn = np.cos(om * s), np.sin(om * s)
    i_cc, i_sc, i_ss = _time_integrals(om, s)
    a2, ab, b2 = _time_weights(z0, w0, om)
    # d/d omega of z, w and t, at fixed z0, w0 and t0
    dz = (-s * sn)[..., None] * z0 \
        + ((s * cs - sn / om) / (4.0 * om))[..., None] * w0
    dw = (-4.0 * (sn + om * s * cs))[..., None] * z0 \
        + (-s * sn)[..., None] * w0
    dt = (a2 * (s * cs * cs - i_cc)
          + ab * (s * sn * cs - 2.0 * i_sc)
          + b2 * (s * sn * sn - 3.0 * i_ss)) / om
    eye = np.eye(n)
    J = np.zeros(shape + (2 * n + 2, 2 * n + 2))
    J[..., :n, :n] = cs[..., None, None] * eye
    J[..., :n, n:2 * n] = (sn / (4.0 * om))[..., None, None] * eye
    J[..., n:2 * n, :n] = (-4.0 * om * sn)[..., None, None] * eye
    J[..., n:2 * n, n:2 * n] = cs[..., None, None] * eye
    J[..., 2 * n, :n] = 2.0 * i_cc[..., None] * z0 \
        + (i_sc / (2.0 * om))[..., None] * w0
    J[..., 2 * n, n:2 * n] = (i_ss / (8.0 * om * om))[..., None] * w0 \
        + (i_sc / (2.0 * om))[..., None] * z0
    J[..., 2 * n, 2 * n] = 1.0
    J[..., :n, -1] = dz / (4.0 * om[..., None])
    J[..., n:2 * n, -1] = dw / (4.0 * om[..., None])
    J[..., 2 * n, -1] = dt / (4.0 * om)
    J[..., -1, -1] = 1.0
    return J


# ---------------------------------------------------------------------------
# non-degeneracy certification

# A certificate passes when (Id - P) Y* makes an angle above ANGLE_MIN
# with the forbidden span.  P is exact to rounding, so no integration
# error turns the angle: on the 1,800 certificates of [run] seeds 1-10,
# 2D and 3D, k = 1, 2, 3, the angles moved by at most 1.4e-12 from those
# of the integrated monodromy.  The threshold sits far below the angles
# of random seeds (0.35 and up on all of those).
ANGLE_MIN = 1e-3


def _principal_angle(vec, span):
    """Smallest principal angle between span{vec} and the column span of
    ``span``, for vec (..., D) and span (..., D, n)."""
    v = vec / np.linalg.norm(vec, axis=-1, keepdims=True)
    Q, _ = np.linalg.qr(span)
    cosang = np.linalg.norm(np.matvec(np.swapaxes(Q, -1, -2), v), axis=-1)
    return np.arccos(np.minimum(1.0, cosang))


def nondegeneracy_certificate(spec, X0):
    """Certify (Id - P) Y* leaves the forbidden span, numerically.

    P is the monodromy over S_k, the exact fundamental matrix of the
    eps = 0 flow from ``closed_form_jacobian``: nothing is integrated.
    The forbidden span is the field direction (2D), joined by the
    circle-action generator (3D).

    X0 is one state (D,), giving one JSON-serializable report with the
    vectors, the principal angle and the degeneracy index, or a stack
    (m, D), giving a list of m reports in row order.  ``spec`` is one
    ManifoldSpec or, for a stack, a sequence of one per row; the rows
    may differ in k (and T) but not in dimension.
    """
    X0 = np.asarray(X0, float)
    stack = np.atleast_2d(X0)
    specs, consts = _per_row(spec, len(stack))
    dims = {s.dim for s in specs}
    if len(dims) != 1:
        raise ValueError("certified states must share one dimension")
    three_d = dims == {3}
    Ystar = variation_start(specs, stack)     # checks every row on M_k
    if three_d and np.any(np.abs(model.bl_value(stack)) > ON_MANIFOLD_TOL):
        raise ValueError("3D certificate needs a BL = 0 state")
    P = closed_form_jacobian(stack, [c.S for c in consts])
    field_dir = model.reg_field(stack, 0.0)
    residual = Ystar - np.matvec(P, Ystar)
    forbidden = [field_dir]
    if three_d:
        forbidden.append(model.group_direction(stack))
    forbidden = np.stack(forbidden, axis=1)             # (m, n, D)
    angle = _principal_angle(residual, np.swapaxes(forbidden, 1, 2))
    dim_e, rank = degeneracy_index(P, field_dir,
                                   model.reg_energy_gradient(stack, 0.0))
    reports = [{
        "k": s.k,
        "T": s.T,
        "dim": s.dim,
        "X0": X.tolist(),
        "Id_minus_P_Ystar": r.tolist(),
        "forbidden_span": f.tolist(),
        "principal_angle": float(a),
        "dim_E": int(e),
        "degeneracy_index": int(e) - 1,
        "rank_Id_minus_Gamma": int(rk),
        "det_monodromy": float(d),
    } for s, X, r, f, a, e, rk, d in zip(specs, stack, residual, forbidden,
                                          angle, dim_e, rank,
                                          np.linalg.det(P))]
    return reports if X0.ndim == 2 else reports[0]


def degeneracy_index(M, field_dir, grad_H):
    """Degeneracy index dim(E) = 1 + dim ker(Id - Gamma) of a closed orbit.

    Builds the adapted basis (v1 not in W, v2 = field direction, rest
    spanning W), extracts the (D-2) x (D-2) block Gamma of the monodromy
    M and decides the rank of Id - Gamma by SVD, counting singular values
    above RANK_TOL times its norm.  Returns (dim_E, rank(Id - Gamma)).
    M is one orbit's (D, D) monodromy with its field direction and
    grad_H (D,) at the start, or a stack (m, D, D) with (m, D) vectors,
    giving two (m,) integer arrays.
    """
    w = np.asarray(field_dir, float)
    if np.any(np.linalg.norm(w, axis=-1) == 0.0):
        raise ValueError("field direction vanishes (equilibrium point)")
    g = np.asarray(grad_H, float)
    g = g / np.linalg.norm(g, axis=-1, keepdims=True)
    w_hat = w - np.vecdot(g, w)[..., None] * g
    w_hat = w_hat / np.linalg.norm(w_hat, axis=-1, keepdims=True)
    D = g.shape[-1]
    eye = np.broadcast_to(np.eye(D), g.shape[:-1] + (D, D))
    Q, _ = np.linalg.qr(np.concatenate([g[..., None], w_hat[..., None], eye],
                                       axis=-1))
    B = np.concatenate([g[..., None], w[..., None], Q[..., 2:]], axis=-1)
    Mp = np.linalg.solve(B, M @ B)
    A = np.eye(D - 2) - Mp[..., 2:, 2:]
    svals = np.linalg.svd(A, compute_uv=False)
    thresh = RANK_TOL * np.maximum(np.linalg.norm(A, axis=(-2, -1)), 1e-30)
    rank = np.sum(svals > thresh[..., None], axis=-1)
    return 1 + (D - 2) - rank, rank
