"""Physical-time reconstruction of regularized orbits and back.

A closed regularized orbit becomes a generalized solution: a continuous
T-periodic trajectory u(t) solving the Kepler equation away from a
discrete set of collisions, each carrying finite limits of the
direction u/|u| and of the energy.  The converse Sundman lift rebuilds
regularized coordinates from u(t) alone, and the collision-removal
construction perturbs a collision orbit into nearby collisionless
solutions of a nearby forced problem.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from . import _output, flow, model

__all__ = [
    "CollisionEvent",
    "TimeMap",
    "GeneralizedSolution",
    "RemovalResult",
    "collision_limits",
    "to_generalized",
    "collision_side_limits",
    "ode_residual",
    "sundman_lift",
    "LiftResult",
    "remove_collisions",
    "generalized_to_csv",
]

ZPRIME_SQ_TOL = 1e-6        # zero-energy relation forces |z'|^2 = 1/2 at z = 0
TIME_TABLE_POINTS = 4000    # interpolation table seeding TimeMap.s_of
EXCISION = 1e-2             # velocity excision half-width, per period
SIDE_DELTA = 1e-2           # largest regularized offset of the side limits
CSV_SAMPLES = 1000          # rows of a generalized-solution CSV


@dataclass
class CollisionEvent:
    """A collision with its finite direction and energy limits."""

    t0: float
    s0: float
    direction: np.ndarray
    energy: float
    zprime_sq: float            # |z'(s0)|^2, expected 1/2


class TimeMap:
    """Monotone physical time t(s) of a regularized trajectory, with inverse.

    ``t_of`` and ``s_of`` take a scalar or an array.  The inverse is
    seeded by linear interpolation in a table of TIME_TABLE_POINTS
    samples and polished by Newton steps on t(s) - t (derivative
    |z(s)|^2) away from collisions; the points Newton leaves are refined
    together in their table cells by ``flow._bracketed_roots``.
    """

    def __init__(self, traj):
        self.traj = traj
        ss = np.linspace(traj.s0, traj.s_end, TIME_TABLE_POINTS)
        ts = self.t_of(ss)
        dt = np.diff(ts)
        if np.any(dt < -1e-12):
            raise ValueError("t(s) is not monotone; the trajectory is not "
                             "a regularized Kepler orbit")
        # strictly increasing table for interpolation (drop flat spots)
        keep = np.concatenate([[True], dt > 0.0])
        self._s_table = ss[keep]
        self._t_table = ts[keep]
        self.t_start = float(ts[0])
        self.t_end = float(ts[-1])

    def t_of(self, s):
        return self.traj.eval(s)[..., -2][()]

    def _inv(self, t):
        """Table seed of the inverse: s(t) interpolated linearly."""
        return np.interp(t, self._t_table, self._s_table)

    def s_of(self, t):
        t = np.clip(np.asarray(t, float), self.t_start, self.t_end)
        ts = t.reshape(-1)
        s = self._inv(ts)
        t_scale = max(1.0, abs(self.t_start), abs(self.t_end))
        converged = np.zeros(ts.size, bool)
        todo = np.arange(ts.size)           # points Newton still polishes
        for _ in range(4):
            if todo.size == 0:
                break
            z, _, t_at, _ = model.unpack_state(self.traj.eval(s[todo]))
            gap = t_at - ts[todo]
            r2 = np.sum(z * z, axis=-1)
            done = np.abs(gap) < 1e-13 * t_scale
            converged[todo[done]] = True
            step = ~done & (r2 >= 1e-8)
            todo = todo[step]
            s[todo] = np.clip(s[todo] - gap[step] / r2[step],
                              self.traj.s0, self.traj.s_end)
        # near a collision t(s) is cubically flat and Newton is useless;
        # refine the table cell t_table[j-1] < t <= t_table[j] instead
        left = np.flatnonzero(~converged)
        if left.size:
            j = np.clip(np.searchsorted(self._t_table, ts[left]), 1,
                        len(self._t_table) - 1)
            s[left] = flow._bracketed_roots(
                lambda sx, i: self.t_of(sx) - ts[left[i]],
                self._s_table[j - 1], self._s_table[j],
                self._t_table[j - 1] - ts[left], self._t_table[j] - ts[left],
                xtol=1e-15)
        return s.reshape(t.shape)[()]


def collision_limits(traj, s0, eps, pert):
    """Direction and energy limits at a collision, from the closed formulas.

    direction is the physical image of the unit z'(s0); the energy limit
    is -tau(s0) + eps U(t(s0), u(s0)), with u(s0) = 0 up to rounding.
    The zero-energy relation pins |z'(s0)|^2 = 1/2; a larger deviation
    than 1e-6 is an inconsistency.
    """
    X = traj.eval(s0)
    _, w, t0, _ = model.unpack_state(X)
    zp = w / 4.0
    zp_sq = float(np.dot(zp, zp))
    if abs(zp_sq - 0.5) > ZPRIME_SQ_TOL:
        raise ValueError(
            f"|z'|^2 = {zp_sq} at the collision, violating the zero-energy "
            "relation |z'|^2 = 1/2")
    d = zp / np.sqrt(zp_sq)
    return CollisionEvent(t0=float(t0), s0=float(s0),
                          direction=model.position(d),
                          energy=float(model.state_energy(X, eps, pert)),
                          zprime_sq=zp_sq)


@dataclass
class GeneralizedSolution:
    """Physical-time view of a closed regularized orbit."""

    period: float               # eta * T
    traj: object                # regularized trajectory over [0, S]
    tmap: TimeMap
    collisions: list
    eps: float
    pert: object
    dim: int

    @property
    def t_start(self):
        return self.tmap.t_start

    def state_at_t(self, t):
        """Regularized state at t: (D,) for a scalar, t.shape + (D,)
        for an array."""
        return self.traj.eval(self.tmap.s_of(t))

    def u(self, t):
        return model.state_position(self.state_at_t(t))

    def sample(self, n):
        """Arrays (t, u, v) at n times over one period; v is NaN inside
        excision windows of half-width EXCISION * period around each
        collision."""
        ts, X, vs = self._sample(n)
        return ts, model.state_position(X), vs

    def _sample(self, n):
        """``sample`` with the regularized states (n, D) in place of u,
        read with one inversion of the time map."""
        ts = np.linspace(self.t_start, self.t_start + self.period, n)
        X = self.state_at_t(ts)
        vs = np.full((n, self.dim), np.nan)
        far = self._farther_than(ts, EXCISION * self.period)
        vs[far] = model.state_velocity(X[far])
        return ts, X, vs

    def _farther_than(self, ts, dist):
        """Mask of the times ts farther than dist from every collision,
        modulo the period."""
        far = np.ones(np.shape(ts), bool)
        for c in self.collisions:
            d = np.abs(ts - c.t0)
            far &= np.minimum(d, np.abs(d - self.period)) > dist
        return far


def to_generalized(orbit, pert):
    """Generalized solution of a converged periodic orbit.

    Re-integrates the orbit densely over [0, S], locates collisions and
    evaluates their limits.  3D orbits must conserve BL to 1e-9 along
    the way, otherwise the projected u(t) would not solve the physical
    equation.
    """
    fld = lambda X: model.reg_field(X, orbit.eps, pert)
    traj = flow.integrate(fld, orbit.X0, orbit.S)
    if orbit.dim == 3:
        bl = np.max(np.abs(model.bl_value(traj.states[:, :10])))
        if bl > 1e-9:
            raise ValueError(f"BL drifts to {bl:.2e} along the orbit; its "
                             "KS projection is not a physical solution")
    tmap = TimeMap(traj)
    collisions = [collision_limits(traj, s, orbit.eps, pert)
                  for s in flow.detect_events(traj)]
    period = orbit.eta * pert.period
    return GeneralizedSolution(period=period, traj=traj, tmap=tmap,
                               collisions=collisions, eps=orbit.eps,
                               pert=pert, dim=orbit.dim)


# ---------------------------------------------------------------------------
# oracles for collision limits

def _richardson(samples):
    """Limit at 0 from samples at h, h/2, h/4 stacked on the first axis
    (first-order series)."""
    f1, f2, f4 = samples
    r1 = 2.0 * f2 - f1
    r2 = 2.0 * f4 - f2
    return 2.0 * r2 - r1            # second elimination stage


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def collision_side_limits(gensol, event):
    """Two-sided extrapolated direction, energy and velocity direction.

    Samples u/|u|, the energy and v/|v| at regularized offsets
    s0 -+ SIDE_DELTA (halved twice) and Richardson-extrapolates; this is
    the independent cross-check of ``collision_limits``.
    """
    h = SIDE_DELTA / np.array([1.0, 2.0, 4.0])
    out = {}
    for label, sign in (("minus", -1.0), ("plus", +1.0)):
        X = gensol.traj.eval(event.s0 + sign * h)
        udir = _richardson(_unit(model.state_position(X)))
        E = _richardson(model.state_energy(X, gensol.eps, gensol.pert))
        vdir = _richardson(_unit(model.state_velocity(X)))
        out[f"dir_{label}"] = _unit(udir)
        out[f"energy_{label}"] = float(E)
        out[f"vdir_{label}"] = _unit(vdir)
    return out


# The stencil error of ode_residual grows like dist^{-16/3} approaching a
# collision, so its sample points within 120 h of one, or inside radius
# ODE_R_MIN, are skipped.
ODE_SAMPLES = 200
ODE_STEP = 2e-4             # stencil step h, per period
ODE_R_MIN = 0.05


def ode_residual(gensol):
    """Residual of the physical equation along a generalized solution.

    y = (u(t), v(t)) is differentiated by a fourth-order central stencil
    of step h = ODE_STEP * period at ODE_SAMPLES times and compared with
    ``model.physical_field``.
    """
    Tp = gensol.period
    h = ODE_STEP * Tp
    eps, pert = gensol.eps, gensol.pert
    ts = np.linspace(gensol.t_start + 3 * h, gensol.t_start + Tp - 3 * h,
                     ODE_SAMPLES)
    ts = ts[gensol._farther_than(ts, 120 * h)]
    # states at t - 2h .. t + 2h, one row per sample point
    X = gensol.state_at_t(ts[:, None] + h * np.arange(-2.0, 3.0))
    u = model.state_position(X)
    keep = np.linalg.norm(u[:, 2], axis=-1) >= ODE_R_MIN
    ts, X, u = ts[keep], X[keep], u[keep]
    if ts.size == 0:
        raise ValueError("no usable sample points away from collisions")
    # y = (u, v) at the five stencil points; its derivative against the
    # physical field at the middle one
    y = np.concatenate([u, model.state_velocity(X)], axis=-1)
    ydot = (-y[:, 4] + 8.0 * y[:, 3] - 8.0 * y[:, 1] + y[:, 0]) / (12.0 * h)
    defect = ydot - model.physical_field(ts, y[:, 2], eps, pert)
    n = u.shape[-1]
    return {"max_residual": float(np.max(np.linalg.norm(defect[:, n:],
                                                         axis=-1))),
            "max_udot_mismatch": float(np.max(np.linalg.norm(
                defect[:, :n], axis=-1))),
            "n_used": int(ts.size)}


# ---------------------------------------------------------------------------
# converse Sundman construction (planar)

@dataclass
class LiftResult:
    s: np.ndarray
    states: np.ndarray          # regularized states, one per node
    S: float                    # total regularized period
    kind: str                   # "periodic" or "anti-periodic"


_GL_NODES, _GL_WEIGHTS = legendre.leggauss(10)
# node values -> Legendre coefficients of the interpolant's antiderivative
_GL_ANTI = legendre.legint(np.linalg.inv(legendre.legvander(_GL_NODES, 9))).T


def _gauss_panels(f, breaks):
    """F(s) = int_{breaks[0]}^s f on 10-point Gauss-Legendre panels; f maps
    the (P, 10) array of nodes to values.  Returns F at the breaks and F of
    a scalar or array s, from each panel's 10-node Legendre interpolant."""
    half, mid = 0.5 * np.diff(breaks), 0.5 * (breaks[:-1] + breaks[1:])
    vals = f(half[:, None] * _GL_NODES + mid[:, None])
    cum = np.concatenate([[0.0], np.cumsum(half * (vals @ _GL_WEIGHTS))])
    anti = half * (vals @ _GL_ANTI).T
    start = legendre.legval(-1.0, anti)     # subtracted: F(breaks[0]) = 0

    def F(s):
        i = np.searchsorted(breaks[1:-1], s, side="right")
        G = legendre.legval((s - mid[i]) / half[i], anti[:, i], tensor=False)
        return (cum[i] + (G - start[i]))[()]

    return cum, F


LIFT_NODES = 200            # quadrature breaks per half arc of sundman_lift


def sundman_lift(gensol):
    """Regularized coordinates rebuilt from a planar generalized solution.

    Computes the Sundman integral s(t) = int dt/|u| (the integrable
    collision singularity is absorbed by the substitution t = t0 -+
    sigma^3), then tracks a continuous square-root branch z(s) of u,
    flipping sheets across each collision so that z stays C^1 through
    the rectilinear bounce; w = 2 conj(z) v and the tau that makes
    -tau + eps U the energy of (u, v) close the state.  The branch either
    closes up or returns to -z after one physical period
    ("anti-periodic" case).
    """
    if gensol.dim != 2:
        raise ValueError("the converse Sundman construction is planar only")
    Tp = gensol.period
    t0 = gensol.t_start
    t_cols = sorted(c.t0 for c in gensol.collisions
                    if t0 < c.t0 < t0 + Tp)
    bounds = [t0] + t_cols + [t0 + Tp]
    if gensol.collisions and (
            min(abs(c.t0 - t0) for c in gensol.collisions) < 1e-12
            or min(abs(c.t0 - t0 - Tp) for c in gensol.collisions) < 1e-12):
        raise ValueError("a collision at the period boundary is not "
                         "supported; shift the time origin first")

    def half_integrand(endpoint, sign, singular):
        # in sigma = |t - endpoint|^{1/3} the integrand is smooth; below
        # t-offsets resolvable by the dense output, a singular endpoint
        # is replaced by the universal limit r ~ (9/2)^{1/3} |t-t0|^{2/3}
        def f(sg):
            out = np.full(sg.shape, 3.0 * (2.0 / 9.0) ** (1.0 / 3.0))
            smooth = ~(singular & (sg ** 3 < 1e-8))
            sg = sg[smooth]
            r = np.linalg.norm(gensol.u(endpoint + sign * sg ** 3), axis=-1)
            out[smooth] = 3.0 * sg ** 2 * (1.0 / r)
            return out
        return f

    t_nodes = []
    s_nodes = []
    s_off = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        sing_a = a in t_cols
        sing_b = b in t_cols
        mid = 0.5 * (a + b)
        # left half, substitution t = a + sigma^3 removes a left singularity
        sig = np.linspace(0.0, (mid - a) ** (1.0 / 3.0), LIFT_NODES)
        cums, _ = _gauss_panels(half_integrand(a, 1.0, sing_a), sig)
        tl = a + sig ** 3
        keep = slice(1, None) if sing_a else slice(0, None)
        t_nodes.extend(tl[keep])
        s_nodes.extend(s_off + cums[keep])
        s_off += cums[-1]
        # right half, t = b - sigma^3, walked in increasing t
        sig = np.linspace(0.0, (b - mid) ** (1.0 / 3.0), LIFT_NODES)
        cums, _ = _gauss_panels(half_integrand(b, -1.0, sing_b), sig)
        total = cums[-1]
        tr = b - sig[::-1] ** 3                     # ascending in t
        cums_t = total - cums[::-1]                 # cumulative from mid
        keep = slice(1, -1) if sing_b else slice(1, None)
        t_nodes.extend(tr[keep])
        s_nodes.extend(s_off + cums_t[keep])
        s_off += total
    t_nodes = np.asarray(t_nodes)
    s_nodes = np.asarray(s_nodes)
    S_total = float(s_off)

    X = gensol.state_at_t(t_nodes)
    u = model.state_position(X)
    v = model.state_velocity(X)
    vc = v[:, 0] + 1j * v[:, 1]
    zc = np.sqrt(u[:, 0] + 1j * u[:, 1])
    # sheet tracking: node i takes the root nearer the prediction
    # z + ds z' (z' = conj(z) v / 2) from node i - 1.  The prediction is
    # odd in that node's sheet and negation is exact, so each node's sheet
    # relative to the previous one is read off the principal roots, and
    # the signs are their running product.  On an exact tie a node keeps
    # the previous node's sheet.
    pred = zc[:-1] + np.diff(s_nodes) * (2.0 * zc[:-1].conjugate()
                                         * vc[:-1] / 4.0)
    flip = np.abs(zc[1:] - pred) > np.abs(zc[1:] + pred)
    sign = np.cumprod(np.concatenate([[1.0], np.where(flip, -1.0, 1.0)]))
    zc = np.where(sign < 0.0, -zc, zc)
    wc = 2.0 * zc.conjugate() * vc
    states = np.column_stack([zc.real, zc.imag, wc.real, wc.imag, t_nodes,
                              np.zeros(len(zc))])
    # E = -tau + eps U falls by one per unit of tau: at tau = 0 it is
    # eps U, which fixes the tau that gives the Kepler energy of (u, v)
    states[:, 5] = (model.state_energy(states, gensol.eps, gensol.pert)
                    - model.physical_energy(u, v))

    z_first = complex(states[0, 0], states[0, 1])
    z_last = complex(states[-1, 0], states[-1, 1])
    kind = "periodic" if abs(z_last - z_first) <= abs(z_last + z_first) \
        else "anti-periodic"
    return LiftResult(s=s_nodes, states=states, S=S_total, kind=kind)


# ---------------------------------------------------------------------------
# collision removal (planar)

def _smooth_step_parts(x):
    """(g, g', g'') of the e^{-1/x} step g = F(x)/(F(x)+F(1-x)) on (0, 1)."""
    A = np.exp(-1.0 / x)
    B = np.exp(-1.0 / (1.0 - x))
    Ap = A / x ** 2
    Bp = -B / (1.0 - x) ** 2
    App = A * (1.0 / x ** 4 - 2.0 / x ** 3)
    Bpp = B * (1.0 / (1.0 - x) ** 4 - 2.0 / (1.0 - x) ** 3)
    D = A + B
    P = Ap * B - A * Bp
    Pp = App * B - A * Bpp
    g = A / D
    g1 = P / D ** 2
    g2 = (Pp * D - 2.0 * P * (Ap + Bp)) / D ** 3
    return g, g1, g2


def _bump_jet(s):
    """(bump, bump', bump'') at s, each of the shape of s, for the smooth
    plateau bump: 1 on [-1, 1], 0 off [-2, 2].

    The e^{-1/x} step is evaluated on the transitions 1 < |s| < 2 only,
    where it is finite.
    """
    s = np.asarray(s, float)
    x = 2.0 - np.abs(s)
    jet = np.zeros((3,) + s.shape)
    jet[0, x >= 1.0] = 1.0
    ramp = (x > 0.0) & (x < 1.0)
    g, g1, g2 = _smooth_step_parts(x[ramp])
    jet[:, ramp] = [g, np.where(s[ramp] > 0, -g1, g1), g2]
    return jet


L1_SAMPLES = 2000           # trapezoidal points of RemovalResult.forcing_l1
REMOVAL_SAMPLES = 200
REMOVAL_STEP = 1e-2
# points with |u| < REMOVAL_R_MIN are skipped by RemovalResult.residual,
# since the 1/|u|^2 amplification there pushes stencil noise past any
# useful tolerance
REMOVAL_R_MIN = 0.3


@dataclass
class RemovalResult:
    """Collisionless deformation of a planar collision orbit.

    The callables take a scalar or an array; u_mu and p_mu give
    t.shape + (2,).
    """

    mu: float
    S: float
    T_mu: float                 # t_of_s(S)
    t_of_s: object              # int_0^s |z_mu|^2 on Gauss-Legendre panels
    s_of_t: object              # inverse of t_of_s, bracketed on [0, S]
    z_mu: object                # callable s -> complex
    u_mu: object                # callable t -> t.shape + (2,) array
    p_mu: object                # callable t -> t.shape + (2,) array
    p_of_s: object              # callable s -> complex, p_mu(t(s))
    min_u: float
    collisions_s: list

    def forcing_l1(self):
        """L1 norm of p_mu over one period.

        Integrated in regularized time, int |p_mu| |z_mu|^2 ds, by the
        trapezoidal rule on L1_SAMPLES points.
        """
        ss = np.linspace(0.0, self.S, L1_SAMPLES)
        pc = self.p_of_s(ss)
        d = np.column_stack([pc.real, pc.imag])
        vals = np.linalg.norm(d, axis=-1) * np.abs(self.z_mu(ss)) ** 2
        return float(np.trapezoid(vals, ss))

    def residual(self):
        """Max defect of u_mu in the p_mu-forced equation, by differencing.

        u is differenced in the regularized variable s (where it is
        smooth) with step REMOVAL_STEP at REMOVAL_SAMPLES points, and
        d^2u/dt^2 recovered through dt = |u| ds.
        """
        h = REMOVAL_STEP
        ss = np.linspace(0.0, self.S, REMOVAL_SAMPLES, endpoint=False)
        # z_mu at s - 2h .. s + 2h, one row per sample point
        zs = self.z_mu(ss[:, None] + h * np.arange(-2.0, 3.0))
        qs = np.abs(zs) ** 2
        keep = qs[:, 2] >= REMOVAL_R_MIN
        if not np.any(keep):
            raise ValueError("no sample points with |u| >= REMOVAL_R_MIN")
        us, qs = zs[keep] ** 2, qs[keep]
        q0 = qs[:, 2]
        u_s = (-us[:, 4] + 8 * us[:, 3] - 8 * us[:, 1] + us[:, 0]) / (12 * h)
        u_ss = (-us[:, 4] + 16 * us[:, 3] - 30 * us[:, 2] + 16 * us[:, 1]
                - us[:, 0]) / (12 * h ** 2)
        q_s = (-qs[:, 4] + 8 * qs[:, 3] - 8 * qs[:, 1] + qs[:, 0]) / (12 * h)
        udd = u_ss / q0 ** 2 - u_s * q_s / q0 ** 3
        u0 = us[:, 2]
        rhs = -u0 / np.abs(u0) ** 3 + self.p_of_s(ss[keep])
        return float(np.max(np.abs(udd - rhs)))


def remove_collisions(traj, S, mu, eps, pert):
    """Deform a closed planar collision orbit into a collisionless one.

    Adds mu^3 bump((s - s_c)/mu) v_c to z(s) in a window of half-width
    2 mu around each collision s_c, with v_c a unit normal to z'(s_c).
    The deformed z_mu generates a nearby forced problem: its forcing
    p_mu is read off from the generic identity
    p = 2 z z'' / |z|^4 + z^2 (1 - 2|z'|^2) / |z|^6 evaluated on z_mu,
    and u_mu(t) = z_mu(s_mu(t))^2 solves u'' = -u/|u|^3 + p_mu(t) exactly.
    """
    if traj.dim != 6:
        raise ValueError("collision removal is implemented for planar orbits")
    if mu >= S / 4.0:
        raise ValueError(f"mu = {mu} too large; need mu < S/4 = {S / 4.0}")
    X0 = traj.eval(0.0)
    XS = traj.eval(S)
    diff = XS - X0
    diff[-2] = 0.0              # physical time advances by eta T on closure
    if np.linalg.norm(diff) > 1e-6:
        raise ValueError("the source orbit does not close over [0, S]; the "
                         "anti-periodic case is unsupported")
    s_cols = [float(s) for s in flow.detect_events(traj) if 0.0 < s < S]
    if len(s_cols) >= 2:
        gaps = list(np.diff(s_cols)) + [s_cols[0] + S - s_cols[-1]]
        if min(gaps) <= 4.0 * mu:
            raise ValueError("collision windows of half-width 2 mu overlap")

    # window centres: each collision and its images one period away,
    # each with the unit normal to z'(s_c) = w(s_c) / 4
    # (w_0, w_1) as complex, exactly, signed zeros included
    w = traj.eval(s_cols)[:, 2:4].copy().view(complex)[:, 0]
    normals = np.repeat(1j * w / np.abs(w), 3)
    centres = (np.reshape(s_cols, (-1, 1)) + [-S, 0.0, S]).ravel()

    def windows(s):
        """The window terms of z_mu, z_mu' and z_mu'' at s, stacked."""
        jet = _bump_jet((np.asarray(s, float)[..., None] - centres) / mu)
        scale = np.array([mu ** 3, mu ** 2, mu])
        jet *= scale.reshape((3,) + (1,) * (jet.ndim - 1))
        # real products: a real-by-complex matmul is a slow threaded zgemv
        return jet @ normals.real + 1j * (jet @ normals.imag)

    def z_mu(s):
        X = traj.eval(s)
        return X[..., 0] + 1j * X[..., 1] + windows(s)[0]

    def p_of_s(s):
        X = traj.eval(s)
        F = model.reg_field(X, eps, pert)
        wz, wzp, wzpp = windows(s)
        z = X[..., 0] + 1j * X[..., 1] + wz
        zp = (X[..., 2] + 1j * X[..., 3]) / 4.0 + wzp
        zpp = (F[..., 2] + 1j * F[..., 3]) / 4.0 + wzpp
        r2 = np.abs(z) ** 2
        if np.any(r2 == 0.0):
            raise ValueError("deformed orbit still touches the origin")
        return (2.0 * z * zpp / r2 ** 2
                + z ** 2 * (1.0 - 2.0 * np.abs(zp) ** 2) / r2 ** 3)

    # panels: trajectory steps, 32 per window (breaks at |s - s_c| = mu)
    cuts = (centres[:, None] + mu * np.linspace(-2.0, 2.0, 33)).ravel()
    breaks = np.unique(np.clip(np.concatenate([traj.s, cuts]), 0.0, S))
    _, t_of_s = _gauss_panels(lambda s: np.abs(z_mu(s)) ** 2, breaks)
    T_mu = float(t_of_s(S))     # [0, S] brackets every t in [0, T_mu)

    def s_of_t(t):
        t = np.asarray(t, float) % T_mu
        ts = t.reshape(-1)
        # t_of_s(0) = 0 and t_of_s(S) = T_mu exactly
        s = flow._bracketed_roots(lambda s, i: t_of_s(s) - ts[i],
                                  np.zeros(ts.size), np.full(ts.size, S),
                                  -ts, T_mu - ts, xtol=1e-13)
        return s.reshape(t.shape)[()]

    def u_mu(t):
        z = z_mu(s_of_t(t))
        uc = z * z
        return np.stack([uc.real, uc.imag], axis=-1)

    def p_mu(t):
        pc = p_of_s(s_of_t(t))
        return np.stack([pc.real, pc.imag], axis=-1)

    min_u = np.min(np.abs(z_mu(np.linspace(0.0, S, 4001))) ** 2)
    return RemovalResult(mu=mu, S=S, T_mu=T_mu, t_of_s=t_of_s, s_of_t=s_of_t,
                         z_mu=z_mu, u_mu=u_mu, p_mu=p_mu, p_of_s=p_of_s,
                         min_u=float(min_u), collisions_s=s_cols)


# ---------------------------------------------------------------------------
# export

def generalized_to_csv(gensol, path, header_lines):
    """u(t) at CSV_SAMPLES times with energy and collision flags, under
    header_lines, and the events as ``# collision`` lines after the rows
    (``_output.write_csv``)."""
    ts, X, vs = gensol._sample(CSV_SAMPLES)
    us = model.state_position(X)
    ucols = ",".join(f"u{i}" for i in range(gensol.dim))
    rows = np.column_stack([ts, us, np.linalg.norm(us, axis=-1),
                            model.state_energy(X, gensol.eps, gensol.pert)])
    fmt = ",".join(["%.16e"] * rows.shape[1]) + ",%d"
    near = np.isnan(vs).any(axis=-1)
    lines = [fmt % (*row, flag)
             for row, flag in zip(rows.tolist(), near.tolist())]
    for c in gensol.collisions:
        d = ",".join(f"{x:.12e}" for x in c.direction)
        lines.append(f"# collision t0={c.t0:.12e} s0={c.s0:.12e} "
                     f"direction={d} energy={c.energy:.12e}")
    _output.write_csv(path, header_lines, f"t,{ucols},r,E,near_collision",
                      lines)
