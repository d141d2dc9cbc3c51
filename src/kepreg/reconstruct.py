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
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from . import flow, model

__all__ = [
    "CollisionEvent",
    "TimeMap",
    "GeneralizedSolution",
    "RemovalResult",
    "find_collisions",
    "collision_limits",
    "to_generalized",
    "collision_side_limits",
    "ode_residual",
    "sundman_lift",
    "LiftResult",
    "bump",
    "bump_d1",
    "bump_d2",
    "remove_collisions",
    "generalized_to_csv",
]

ZPRIME_SQ_TOL = 1e-6        # zero-energy relation forces |z'|^2 = 1/2 at z = 0


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
    seeded from a monotone interpolation table and polished by Newton
    steps on t(s) - t (derivative |z(s)|^2) away from collisions.
    """

    def __init__(self, traj, n_table=4000):
        self.traj = traj
        ss = np.linspace(traj.s0, traj.s_end, n_table)
        ts = self.t_of(ss)
        dt = np.diff(ts)
        if np.any(dt < -1e-12):
            raise ValueError("t(s) is not monotone; the trajectory is not "
                             "a regularized Kepler orbit")
        # strictly increasing table for interpolation (drop flat spots)
        keep = np.concatenate([[True], dt > 0.0])
        self._s_table = ss[keep]
        self._t_table = ts[keep]
        self._inv = PchipInterpolator(self._t_table, self._s_table)
        self.t_start = float(ts[0])
        self.t_end = float(ts[-1])

    def t_of(self, s):
        return self.traj.eval(s)[-2]

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
            X = self.traj.eval(s[todo])
            gap = X[-2] - ts[todo]
            z = X[: (len(X) - 2) // 2]
            r2 = np.sum(z * z, axis=0)
            done = np.abs(gap) < 1e-13 * t_scale
            converged[todo[done]] = True
            step = ~done & (r2 >= 1e-8)
            todo = todo[step]
            s[todo] = np.clip(s[todo] - gap[step] / r2[step],
                              self.traj.s0, self.traj.s_end)
        # near a collision t(s) is cubically flat and Newton is useless;
        # bisect on the dense trajectory instead
        for i in np.flatnonzero(~converged):
            j = int(np.searchsorted(self._t_table, ts[i]))
            lo = self._s_table[max(j - 1, 0)]
            hi = self._s_table[min(j, len(self._s_table) - 1)]
            g = lambda sx: self.t_of(sx) - ts[i]
            if lo < hi and g(lo) <= 0.0 <= g(hi):
                s[i] = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
        return s.reshape(t.shape)[()]


def _states(traj, s):
    """Dense-output states at s, of shape s.shape + (D,)."""
    return traj.eval(np.ravel(s)).T.reshape(np.shape(s) + (-1,))


def find_collisions(traj):
    """Collision events (z = 0 crossings) of a regularized trajectory."""
    return flow.detect_events(traj, [flow.collision_event_spec()])


def collision_limits(traj, tmap, s0, eps=0.0, pert=None):
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
    provenance: str = ""

    @property
    def t_start(self):
        return self.tmap.t_start

    def state_at_t(self, t):
        """Regularized state at t: (D,) for a scalar, t.shape + (D,)
        for an array."""
        return _states(self.traj, self.tmap.s_of(t))

    def u(self, t):
        return model.state_position(self.state_at_t(t))

    def v(self, t):
        """Velocity du/dt; diverges at collisions."""
        return model.state_velocity(self.state_at_t(t))

    def energy(self, t):
        """Physical energy |v|^2/2 - 1/|u|, smooth through collisions
        as -tau + eps U."""
        return model.state_energy(self.state_at_t(t), self.eps, self.pert)

    def sample(self, n, excision=None):
        """Arrays (t, u, v) over one period; v is NaN inside excision
        windows of half-width ``excision`` around each collision."""
        if excision is None:
            excision = 1e-2 * self.period
        ts = np.linspace(self.t_start, self.t_start + self.period, n)
        X = self.state_at_t(ts)
        vs = np.full((n, self.dim), np.nan)
        far = self._farther_than(ts, excision)
        vs[far] = model.state_velocity(X[far])
        return ts, model.state_position(X), vs

    def _farther_than(self, ts, dist):
        """Mask of the times ts farther than dist from every collision,
        modulo the period."""
        far = np.ones(np.shape(ts), bool)
        for c in self.collisions:
            d = np.abs(ts - c.t0)
            far &= np.minimum(d, np.abs(d - self.period)) > dist
        return far


def to_generalized(orbit, pert, cfg=None, provenance=""):
    """Generalized solution of a converged periodic orbit.

    Re-integrates the orbit densely over [0, S], locates collisions and
    evaluates their limits.  3D orbits must conserve BL to 1e-9 along
    the way, otherwise the projected u(t) would not solve the physical
    equation.
    """
    cfg = cfg or flow.IntegratorConfig()
    fld = lambda X: model.reg_field(X, orbit.eps, pert)
    traj = flow.integrate(fld, orbit.X0, orbit.S, cfg)
    if orbit.dim == 3:
        bl = np.max(np.abs(model.bl_value(traj.states[:, :10])))
        if bl > 1e-9:
            raise ValueError(f"BL drifts to {bl:.2e} along the orbit; its "
                             "KS projection is not a physical solution")
    tmap = TimeMap(traj)
    events = find_collisions(traj)
    collisions = [collision_limits(traj, tmap, e.s, orbit.eps, pert)
                  for e in events]
    period = orbit.eta * pert.period
    return GeneralizedSolution(period=period, traj=traj, tmap=tmap,
                               collisions=collisions, eps=orbit.eps,
                               pert=pert, dim=orbit.dim,
                               provenance=provenance)


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


def collision_side_limits(gensol, event, delta=1e-2):
    """Two-sided extrapolated direction, energy and velocity direction.

    Samples u/|u|, the energy and v/|v| at regularized offsets
    s0 -+ delta (halved twice) and Richardson-extrapolates; this is the
    independent cross-check of ``collision_limits``.
    """
    h = delta / np.array([1.0, 2.0, 4.0])
    out = {}
    for label, sign in (("minus", -1.0), ("plus", +1.0)):
        X = gensol.traj.eval(event.s0 + sign * h).T
        udir = _richardson(_unit(model.state_position(X)))
        E = _richardson(model.state_energy(X, gensol.eps, gensol.pert))
        vdir = _richardson(_unit(model.state_velocity(X)))
        out[f"dir_{label}"] = _unit(udir)
        out[f"energy_{label}"] = float(E)
        out[f"vdir_{label}"] = _unit(vdir)
    return out


def ode_residual(gensol, n_samples=200, h=None, r_min=0.05):
    """Residual of the physical equation along a generalized solution.

    v(t) is differentiated by a fourth-order central stencil and
    compared with -u/|u|^3 + eps grad U.  The stencil error grows like
    dist^{-16/3} approaching a collision, so sample points within 120 h
    of one (or inside radius ``r_min``) are skipped.
    """
    Tp = gensol.period
    h = h or 2e-4 * Tp
    eps, pert = gensol.eps, gensol.pert
    ts = np.linspace(gensol.t_start + 3 * h, gensol.t_start + Tp - 3 * h,
                     n_samples)
    ts = ts[gensol._farther_than(ts, 120 * h)]
    # states at t - 2h .. t + 2h, one row per sample point
    X = gensol.state_at_t(ts[:, None] + h * np.arange(-2.0, 3.0))
    u = model.state_position(X)
    keep = np.linalg.norm(u[:, 2], axis=-1) >= r_min
    ts, X, u = ts[keep], X[keep], u[keep]
    if ts.size == 0:
        raise ValueError("no usable sample points away from collisions")
    v = model.state_velocity(X)
    u0 = u[:, 2]
    vdot = (-v[:, 4] + 8.0 * v[:, 3] - 8.0 * v[:, 1] + v[:, 0]) / (12.0 * h)
    acc = -u0 / np.linalg.norm(u0, axis=-1, keepdims=True) ** 3
    if eps != 0.0 and pert is not None:
        acc = acc + eps * pert.evaluate(ts, u0, eps).grad
    udot = (-u[:, 4] + 8.0 * u[:, 3] - 8.0 * u[:, 1] + u[:, 0]) / (12.0 * h)
    return {"max_residual": float(np.max(np.linalg.norm(vdot - acc,
                                                         axis=-1))),
            "max_udot_mismatch": float(np.max(np.linalg.norm(
                udot - v[:, 2], axis=-1))),
            "n_used": int(ts.size)}


# ---------------------------------------------------------------------------
# converse Sundman construction (planar)

@dataclass
class LiftResult:
    s: np.ndarray
    states: np.ndarray          # regularized states, one per node
    S: float                    # total regularized period
    kind: str                   # "periodic" or "anti-periodic"


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _cumulative_gauss(f, nodes):
    """Cumulative integral of f at the given nodes (10-point Gauss per
    gap); f maps an array of points to an array of values."""
    a, b = nodes[:-1, None], nodes[1:, None]
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    gaps = 0.5 * (b - a)[:, 0] * (f(x) @ _GL_WEIGHTS)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def sundman_lift(gensol, n_per_arc=200):
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
        sig = np.linspace(0.0, (mid - a) ** (1.0 / 3.0), n_per_arc)
        cums = _cumulative_gauss(half_integrand(a, 1.0, sing_a), sig)
        tl = a + sig ** 3
        keep = slice(1, None) if sing_a else slice(0, None)
        t_nodes.extend(tl[keep])
        s_nodes.extend(s_off + cums[keep])
        s_off += cums[-1]
        # right half, t = b - sigma^3, walked in increasing t
        sig = np.linspace(0.0, (b - mid) ** (1.0 / 3.0), n_per_arc)
        cums = _cumulative_gauss(half_integrand(b, -1.0, sing_b), sig)
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
    # sheet tracking: each sign follows from the previous node's z, z'
    for i in range(1, len(zc)):
        z_prev = zc[i - 1]
        z_pred = z_prev + (s_nodes[i] - s_nodes[i - 1]) * (
            2.0 * z_prev.conjugate() * vc[i - 1] / 4.0)
        if abs(zc[i] - z_pred) > abs(-zc[i] - z_pred):
            zc[i] = -zc[i]
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
    """(bump, bump', bump'') at s, each of the shape of s.

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


def bump(s):
    """Smooth plateau: 1 on [-1, 1], 0 off [-2, 2]."""
    return _bump_jet(s)[0][()]


def bump_d1(s):
    return _bump_jet(s)[1][()]


def bump_d2(s):
    return _bump_jet(s)[2][()]


@dataclass
class RemovalResult:
    """Collisionless deformation of a planar collision orbit.

    The callables of s take a scalar or an array; those of t take a
    scalar.
    """

    mu: float
    S: float
    T_mu: float
    t_of_s: object              # callable, dense
    s_of_t: object
    z_mu: object                # callable s -> complex
    u_mu: object                # callable t -> (2,) array
    p_mu: object                # callable t -> (2,) array
    p_of_s: object              # callable s -> complex, p_mu(t(s))
    min_u: float
    collisions_s: list

    def forcing_l1(self, p_ref=None, n=2000):
        """L1 distance of p_mu to a reference forcing over one period.

        Integrated in regularized time: int |p_mu - p_ref| |z_mu|^2 ds.
        ``p_ref`` maps an array of times (n,) to forcings (n, 2).
        """
        ss = np.linspace(0.0, self.S, n)
        pc = self.p_of_s(ss)
        d = np.column_stack([pc.real, pc.imag])
        if p_ref is not None:
            d = d - np.asarray(p_ref(self.t_of_s(ss)), float)
        vals = np.linalg.norm(d, axis=-1) * np.abs(self.z_mu(ss)) ** 2
        return float(np.trapezoid(vals, ss))

    def residual(self, n=200, h=1e-2, r_min=0.3):
        """Max defect of u_mu in the p_mu-forced equation, by differencing.

        u is differenced in the regularized variable s (where it is
        smooth) and d^2u/dt^2 recovered through dt = |u| ds; points with
        |u| < r_min are skipped since the 1/|u|^2 amplification there
        pushes stencil noise past any useful tolerance.
        """
        ss = np.linspace(0.0, self.S, n, endpoint=False)
        # z_mu at s - 2h .. s + 2h, one row per sample point
        zs = self.z_mu(ss[:, None] + h * np.arange(-2.0, 3.0))
        qs = np.abs(zs) ** 2
        keep = qs[:, 2] >= r_min
        if not np.any(keep):
            raise ValueError("no sample points with |u| >= r_min")
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


def remove_collisions(traj, S, mu, eps=0.0, pert=None, cfg=None):
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
    events = find_collisions(traj)
    s_cols = sorted(e.s for e in events if 0.0 < e.s < S)
    if len(s_cols) >= 2:
        gaps = list(np.diff(s_cols)) + [s_cols[0] + S - s_cols[-1]]
        if min(gaps) <= 4.0 * mu:
            raise ValueError("collision windows of half-width 2 mu overlap")

    # window centres: each collision and its images one period away,
    # each with the unit normal to z'(s_c) = w(s_c) / 4
    w = np.array([complex(*traj.eval(sc)[2:4]) for sc in s_cols])
    normals = np.repeat(1j * w / np.abs(w), 3)
    centres = (np.reshape(s_cols, (-1, 1)) + [-S, 0.0, S]).ravel()

    def windows(s):
        """The window terms of z_mu, z_mu' and z_mu'' at s, stacked."""
        jet = _bump_jet((np.asarray(s, float)[..., None] - centres) / mu)
        scale = np.array([mu ** 3, mu ** 2, mu])
        jet *= scale.reshape((3,) + (1,) * (jet.ndim - 1))
        return jet @ normals

    def z_mu(s):
        X = _states(traj, s)
        return X[..., 0] + 1j * X[..., 1] + windows(s)[0]

    def p_of_s(s):
        X = _states(traj, s)
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

    cfg = cfg or flow.IntegratorConfig()
    res = solve_ivp(lambda s, y: [abs(z_mu(s)) ** 2], (0.0, S), [0.0],
                    method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    dense_output=True)
    if not res.success:
        raise flow.FlowError(f"time quadrature failed: {res.message}")
    T_mu = float(res.y[0, -1])
    t_sol = res.sol

    def t_of_s(s):
        return t_sol(s)[0]

    def s_of_t(t):
        t = float(t) % T_mu
        return brentq(lambda s: t_of_s(s) - t, 0.0, S, xtol=1e-13)

    def u_mu(t):
        z = z_mu(s_of_t(t))
        uc = z * z
        return np.array([uc.real, uc.imag])

    def p_mu(t):
        pc = p_of_s(s_of_t(t))
        return np.array([pc.real, pc.imag])

    min_u = np.min(np.abs(z_mu(np.linspace(0.0, S, 4001))) ** 2)
    return RemovalResult(mu=mu, S=S, T_mu=T_mu, t_of_s=t_of_s, s_of_t=s_of_t,
                         z_mu=z_mu, u_mu=u_mu, p_mu=p_mu, p_of_s=p_of_s,
                         min_u=float(min_u), collisions_s=s_cols)


# ---------------------------------------------------------------------------
# export

def generalized_to_csv(gensol, path, n=1000, header_lines=()):
    """Sampled u(t) with energy and collision flags, events as a footer."""
    ts, us, vs = gensol.sample(n)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        ucols = ",".join(f"u{i}" for i in range(gensol.dim))
        fh.write(f"t,{ucols},r,E,near_collision\n")
        rows = np.column_stack([ts, us, np.linalg.norm(us, axis=-1),
                                gensol.energy(ts)])
        for row, near in zip(rows, np.isnan(vs).any(axis=-1)):
            fh.write(",".join(f"{x:.16e}" for x in row) + f",{near:d}\n")
        for c in gensol.collisions:
            d = ",".join(f"{x:.12e}" for x in c.direction)
            fh.write(f"# collision t0={c.t0:.12e} s0={c.s0:.12e} "
                     f"direction={d} energy={c.energy:.12e}\n")
