"""Complex and quaternion arithmetic for collision regularization.

Quaternions are plain length-4 numpy arrays ordered as (1, i, j, k).
Purely imaginary quaternions (vanishing real part) are handled as
length-3 arrays over (i, j, k).  The planar Levi-Civita map works on
Python complex numbers.
"""

import numpy as np

__all__ = [
    "QUAT_ONE",
    "QUAT_I",
    "QUAT_J",
    "QUAT_K",
    "quat_mul",
    "quat_conj",
    "quat_norm",
    "i_mul",
    "pure",
    "lc_map",
    "lc_position",
    "ks_map",
    "ks_gradient_transport",
    "lc_plane_check",
    "lc_plane_basis",
]

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])

PLANE_TOL = 1e-12


def quat_mul(p, q):
    """Hamilton product p*q of two quaternions."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ])


def quat_conj(p):
    """Quaternion conjugate (negates the imaginary part)."""
    return np.array([p[0], -p[1], -p[2], -p[3]])


def quat_norm(p):
    """|p| of one quaternion (4,), or of each of a stack (..., 4)."""
    return np.sqrt(np.vecdot(p, p))


def i_mul(q):
    """Left multiplication by the unit i, as a cheap special case; q is
    one quaternion (4,) or a stack (..., 4)."""
    q = np.asarray(q)
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


def pure(u):
    """Embed an (i, j, k) triple as a quaternion with zero real part."""
    return np.array([0.0, u[0], u[1], u[2]])


def lc_map(z, w):
    """Levi-Civita change of variables (z, w) -> (u, v) = (z^2, w / (2 conj z)).

    Raises ValueError at z = 0 (collision point); use ``lc_position``
    when only the position is needed.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("Levi-Civita map undefined at z = 0 (collision)")
    return z * z, complex(w) / (2.0 * z.conjugate())


def lc_position(z):
    """Position half of the Levi-Civita map, total in z."""
    z = complex(z)
    return z * z


def ks_map(z):
    """Kustaanheimo-Stiefel map conj(z) * i * z, returned over (i, j, k)."""
    z0, z1, z2, z3 = z
    return np.array([
        z0 * z0 + z1 * z1 - z2 * z2 - z3 * z3,
        2.0 * (z1 * z2 - z0 * z3),
        2.0 * (z1 * z3 + z0 * z2),
    ])


def ks_gradient_transport(z, grad_u):
    """Gradient of G(KS(z)) at z, given the gradient of G at u = KS(z).

    Implements the transport formula -2 * i * z * grad_u with quaternion
    multiplication; grad_u is an (i, j, k) triple.
    """
    return -2.0 * i_mul(quat_mul(np.asarray(z, dtype=float), pure(grad_u)))


def lc_plane_check(v1, v2):
    """Whether two independent quaternions span a Levi-Civita plane.

    The criterion is Re(conj(v1) * i * v2) = 0 within PLANE_TOL.  Raises
    ValueError for (numerically) dependent inputs.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = quat_norm(v1)
    n2 = quat_norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("plane check needs two independent quaternions")
    cross = np.dot(v1, v2) / (n1 * n2)
    if abs(abs(cross) - 1.0) < 1e-12:
        raise ValueError("plane check needs two independent quaternions")
    return abs(quat_mul(quat_conj(v1), i_mul(v2))[0]) <= PLANE_TOL


def lc_plane_basis(v1, angle):
    """Orthonormal basis (v1^, v2) of a Levi-Civita plane through v1.

    Any unit vector orthogonal to both v1 and i*v1 completes v1 to such
    a plane; ``angle`` picks the choice inside that 2-plane.  v1 is one
    quaternion (4,) with one angle, or a stack (..., 4) with angles
    broadcasting to (...), completed by one batched QR; a stack gives
    each row the bits of its own call.
    """
    v1 = np.asarray(v1, dtype=float)
    n1 = quat_norm(v1)
    if np.any(n1 == 0.0):
        raise ValueError("v1 must be nonzero")
    v1 = v1 / n1[..., None]
    eye = np.broadcast_to(np.eye(4), v1.shape + (4,))
    q, _ = np.linalg.qr(np.concatenate(
        [v1[..., None], i_mul(v1)[..., None], eye], axis=-1))
    # columns 2, 3 of q span the orthogonal complement of {v1, i v1}
    angle = np.asarray(angle)[..., None]
    v2 = np.cos(angle) * q[..., 2] + np.sin(angle) * q[..., 3]
    return v1, v2
