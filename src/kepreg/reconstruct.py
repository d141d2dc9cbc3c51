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

    The inverse is seeded from a monotone interpolation table and
    polished by Newton steps on t(s) - t (derivative |z(s)|^2) away
    from collisions.
    """

    def __init__(self, traj, n_table=4000):
        self.traj = traj
        ss = np.linspace(traj.s0, traj.s_end, n_table)
        ts = np.array([traj.eval(s)[-2] for s in ss])
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
        out = self.traj.eval(s)
        return out[-2] if out.ndim == 1 else out[-2, :]

    def s_of(self, t):
        t_arr = np.atleast_1d(np.asarray(t, float))
        t_scale = max(1.0, abs(self.t_start), abs(self.t_end))
        out = np.empty_like(t_arr)
        for i, ti in enumerate(t_arr):
            ti = float(np.clip(ti, self.t_start, self.t_end))
            s = float(self._inv(ti))
            converged = False
            for _ in range(4):
                X = self.traj.eval(s)
                r2 = float(np.dot(X[: (len(X) - 2) // 2],
                                  X[: (len(X) - 2) // 2]))
                if abs(X[-2] - ti) < 1e-13 * t_scale:
                    converged = True
                    break
                if r2 < 1e-8:
                    break
                s = s - (X[-2] - ti) / r2
                s = float(np.clip(s, self.traj.s0, self.traj.s_end))
            if not converged:
                # near a collision t(s) is cubically flat and Newton is
                # useless; bisect on the dense trajectory instead
                j = int(np.searchsorted(self._t_table, ti))
                lo = self._s_table[max(j - 1, 0)]
                hi = self._s_table[min(j, len(self._s_table) - 1)]
                g = lambda sx: self.traj.eval(sx)[-2] - ti
                if lo < hi and g(lo) <= 0.0 <= g(hi):
                    s = float(brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16))
            out[i] = s
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def find_collisions(traj):
    """Collision events (z = 0 crossings) of a regularized trajectory."""
    return flow.detect_events(traj, [flow.collision_event_spec()])


def collision_limits(traj, tmap, s0, eps=0.0, pert=None):
    """Direction and energy limits at a collision, from the closed formulas.

    direction is the physical image of the unit z'(s0); the energy limit
    is -tau(s0) + eps U(t(s0), 0, eps).  The zero-energy relation pins
    |z'(s0)|^2 = 1/2; a larger deviation than 1e-6 is an inconsistency.
    """
    X = traj.eval(s0)
    z, w, t0, tau = model.unpack_state(X)
    zp = w / 4.0
    zp_sq = float(np.dot(zp, zp))
    if abs(zp_sq - 0.5) > ZPRIME_SQ_TOL:
        raise ValueError(
            f"|z'|^2 = {zp_sq} at the collision, violating the zero-energy "
            "relation |z'|^2 = 1/2")
    d = zp / np.sqrt(zp_sq)
    direction = model.position(d)
    energy = -tau
    if eps != 0.0 and pert is not None:
        energy += eps * pert.value(t0, np.zeros_like(direction), eps)
    return CollisionEvent(t0=float(t0), s0=float(s0), direction=direction,
                          energy=float(energy), zprime_sq=zp_sq)


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
        return self.traj.eval(self.tmap.s_of(t))

    def u(self, t):
        z, _, _, _ = model.unpack_state(self.state_at_t(t))
        return model.position(z)

    def v(self, t):
        """Velocity du/dt; diverges at collisions."""
        z, w, _, _ = model.unpack_state(self.state_at_t(t))
        r2 = float(np.dot(z, z))
        return (model.position_jacobian(z) @ w) / (4.0 * r2)

    def energy(self, t):
        """Physical energy |v|^2/2 - 1/|u|, smooth through collisions
        as -tau + eps U."""
        z, _, tt, tau = model.unpack_state(self.state_at_t(t))
        E = -tau
        if self.eps != 0.0 and self.pert is not None:
            E += self.eps * self.pert.value(tt, model.position(z), self.eps)
        return E

    def sample(self, n, excision=None):
        """Arrays (t, u, v) over one period; v is NaN inside excision
        windows of half-width ``excision`` around each collision."""
        if excision is None:
            excision = 1e-2 * self.period
        ts = np.linspace(self.t_start, self.t_start + self.period, n)
        nu = self.dim
        us = np.empty((n, nu))
        vs = np.full((n, nu), np.nan)
        for i, t in enumerate(ts):
            us[i] = self.u(t)
            if all(self._coll_distance(t, c) > excision
                   for c in self.collisions):
                vs[i] = self.v(t)
        return ts, us, vs

    def _coll_distance(self, t, c):
        d = abs(t - c.t0)
        return min(d, abs(d - self.period))


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
        bl = max(abs(model.bl_value(X)) for X in traj.states[:, :10])
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

def _richardson(f, h):
    """Limit of f at 0 from samples at h, h/2, h/4 (first-order series)."""
    f1, f2, f4 = f(h), f(h / 2.0), f(h / 4.0)
    r1 = 2.0 * f2 - f1
    r2 = 2.0 * f4 - f2
    return 2.0 * r2 - r1            # second elimination stage


def collision_side_limits(gensol, event, delta=1e-2):
    """Two-sided extrapolated direction, energy and velocity direction.

    Samples u/|u|, the energy and v/|v| at regularized offsets
    s0 -+ delta (halved twice) and Richardson-extrapolates; this is the
    independent cross-check of ``collision_limits``.
    """
    traj = gensol.traj
    s0 = event.s0

    def at(s):
        z, w, t, tau = model.unpack_state(traj.eval(s))
        u = model.position(z)
        v = (model.position_jacobian(z) @ w) / (4.0 * float(np.dot(z, z)))
        E = -tau
        if gensol.eps != 0.0:
            E += gensol.eps * gensol.pert.value(t, u, gensol.eps)
        return u / np.linalg.norm(u), E, v / np.linalg.norm(v)

    out = {}
    for label, sign in (("minus", -1.0), ("plus", +1.0)):
        udir = _richardson(lambda h: at(s0 + sign * h)[0], delta)
        E = _richardson(lambda h: at(s0 + sign * h)[1], delta)
        vdir = _richardson(lambda h: at(s0 + sign * h)[2], delta)
        out[f"dir_{label}"] = udir / np.linalg.norm(udir)
        out[f"energy_{label}"] = float(E)
        out[f"vdir_{label}"] = vdir / np.linalg.norm(vdir)
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
    max_res = 0.0
    max_vdiff = 0.0
    used = 0
    for t in ts:
        if any(gensol._coll_distance(t, c) < 120 * h
               for c in gensol.collisions):
            continue
        u = gensol.u(t)
        if np.linalg.norm(u) < r_min:
            continue
        vm2, vm1 = gensol.v(t - 2 * h), gensol.v(t - h)
        vp1, vp2 = gensol.v(t + h), gensol.v(t + 2 * h)
        vdot = (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / (12.0 * h)
        acc = -u / np.linalg.norm(u) ** 3
        if eps != 0.0 and pert is not None:
            acc = acc + eps * pert.grad_u(t, u, eps)
        max_res = max(max_res, float(np.linalg.norm(vdot - acc)))
        um2, um1 = gensol.u(t - 2 * h), gensol.u(t - h)
        up1, up2 = gensol.u(t + h), gensol.u(t + 2 * h)
        udot = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
        max_vdiff = max(max_vdiff, float(np.linalg.norm(udot - gensol.v(t))))
        used += 1
    if used == 0:
        raise ValueError("no usable sample points away from collisions")
    return {"max_residual": max_res, "max_udot_mismatch": max_vdiff,
            "n_used": used}


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
    """Cumulative integral of f at the given nodes (10-point Gauss per gap)."""
    out = np.zeros(len(nodes))
    for i in range(len(nodes) - 1):
        a, b = nodes[i], nodes[i + 1]
        x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        out[i + 1] = out[i] + 0.5 * (b - a) * float(
            np.dot(_GL_WEIGHTS, [f(xi) for xi in x]))
    return out


def sundman_lift(gensol, n_per_arc=200):
    """Regularized coordinates rebuilt from a planar generalized solution.

    Computes the Sundman integral s(t) = int dt/|u| (the integrable
    collision singularity is absorbed by the substitution t = t0 -+
    sigma^3), then tracks a continuous square-root branch z(s) of u,
    flipping sheets across each collision so that z stays C^1 through
    the rectilinear bounce; w = 2 conj(z) v and tau = -E + eps U close
    the state.  The branch either closes up or returns to -z after one
    physical period ("anti-periodic" case).
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

    def speed_recip(t):
        return 1.0 / np.linalg.norm(gensol.u(t))

    def half_integrand(endpoint, sign, singular):
        # in sigma = |t - endpoint|^{1/3} the integrand is smooth; below
        # t-offsets resolvable by the dense output, a singular endpoint
        # is replaced by the universal limit r ~ (9/2)^{1/3} |t-t0|^{2/3}
        def f(sg):
            if singular and sg ** 3 < 1e-8:
                return 3.0 * (2.0 / 9.0) ** (1.0 / 3.0)
            return 3.0 * sg ** 2 * speed_recip(endpoint + sign * sg ** 3)
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

    states = np.empty((len(t_nodes), 6))
    z_prev = None
    zp_prev = None
    s_prev = 0.0
    for i, (t, s) in enumerate(zip(t_nodes, s_nodes)):
        u = gensol.u(t)
        v = gensol.v(t)
        uc = complex(u[0], u[1])
        vc = complex(v[0], v[1])
        root = np.sqrt(uc)
        if z_prev is None:
            zc = root
        else:
            z_pred = z_prev + (s - s_prev) * zp_prev
            zc = root if abs(root - z_pred) <= abs(-root - z_pred) else -root
        wc = 2.0 * zc.conjugate() * vc
        E = 0.5 * float(np.dot(v, v)) - 1.0 / float(np.linalg.norm(u))
        tau = -E
        if gensol.eps != 0.0 and gensol.pert is not None:
            tau += gensol.eps * gensol.pert.value(t, u, gensol.eps)
        states[i] = model.pack_state(np.array([zc.real, zc.imag]),
                                     np.array([wc.real, wc.imag]), t, tau)
        z_prev, zp_prev, s_prev = zc, wc / 4.0, s

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


def bump(s):
    """Smooth plateau: 1 on [-1, 1], 0 off [-2, 2]."""
    x = 2.0 - abs(s)
    if x >= 1.0:
        return 1.0
    if x <= 0.0:
        return 0.0
    return _smooth_step_parts(x)[0]


def bump_d1(s):
    x = 2.0 - abs(s)
    if x >= 1.0 or x <= 0.0:
        return 0.0
    sgn = -1.0 if s > 0 else 1.0
    return sgn * _smooth_step_parts(x)[1]


def bump_d2(s):
    x = 2.0 - abs(s)
    if x >= 1.0 or x <= 0.0:
        return 0.0
    return _smooth_step_parts(x)[2]


@dataclass
class RemovalResult:
    """Collisionless deformation of a planar collision orbit."""

    mu: float
    S: float
    T_mu: float
    t_of_s: object              # callable, dense
    s_of_t: object
    z_mu: object                # callable s -> complex
    u_mu: object                # callable t -> (2,) array
    p_mu: object                # callable t -> (2,) array
    min_u: float
    collisions_s: list

    def forcing_l1(self, p_ref=None, n=2000):
        """L1 distance of p_mu to a reference forcing over one period.

        Integrated in regularized time: int |p_mu - p_ref| |z_mu|^2 ds.
        """
        ss = np.linspace(0.0, self.S, n)
        vals = np.empty(n)
        for i, s in enumerate(ss):
            t = self.t_of_s(s)
            d = self.p_mu(t)
            if p_ref is not None:
                d = d - np.asarray(p_ref(t), float)
            vals[i] = np.linalg.norm(d) * abs(self.z_mu(s)) ** 2
        return float(np.trapezoid(vals, ss))

    def residual(self, n=200, h=1e-2, r_min=0.3):
        """Max defect of u_mu in the p_mu-forced equation, by differencing.

        u is differenced in the regularized variable s (where it is
        smooth) and d^2u/dt^2 recovered through dt = |u| ds; points with
        |u| < r_min are skipped since the 1/|u|^2 amplification there
        pushes stencil noise past any useful tolerance.
        """
        q_of = lambda s: abs(self.z_mu(s)) ** 2
        u_of = lambda s: self.z_mu(s) ** 2

        max_res = 0.0
        used = 0
        for s in np.linspace(0.0, self.S, n, endpoint=False):
            q0 = q_of(s)
            if q0 < r_min:
                continue
            us = [u_of(s + j * h) for j in (-2, -1, 0, 1, 2)]
            qs = [q_of(s + j * h) for j in (-2, -1, 1, 2)]
            u_s = (-us[4] + 8 * us[3] - 8 * us[1] + us[0]) / (12 * h)
            u_ss = (-us[4] + 16 * us[3] - 30 * us[2] + 16 * us[1]
                    - us[0]) / (12 * h ** 2)
            q_s = (-qs[3] + 8 * qs[2] - 8 * qs[1] + qs[0]) / (12 * h)
            udd = u_ss / q0 ** 2 - u_s * q_s / q0 ** 3
            u0 = us[2]
            rhs = -u0 / abs(u0) ** 3 + complex(*self.p_mu(self.t_of_s(s)))
            max_res = max(max_res, abs(udd - rhs))
            used += 1
        if used == 0:
            raise ValueError("no sample points with |u| >= r_min")
        return max_res


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

    normals = {}
    for sc in s_cols:
        _, w, _, _ = model.unpack_state(traj.eval(sc))
        zp = complex(w[0], w[1]) / 4.0
        normals[sc] = 1j * zp / abs(zp)

    def z_src(s):
        X = traj.eval(s)
        z, w, _, _ = model.unpack_state(X)
        f = model.reg_field(X, eps, pert)
        zpp = complex(f[2], f[3]) / 4.0
        return (complex(z[0], z[1]), complex(w[0], w[1]) / 4.0, zpp)

    def z_mu_full(s):
        """(z_mu, z_mu', z_mu'') at s, windows wrapped periodically."""
        z, zp, zpp = z_src(s)
        for sc, v in normals.items():
            for image in (sc - S, sc, sc + S):
                x = (s - image) / mu
                if abs(x) < 2.0:
                    z = z + mu ** 3 * bump(x) * v
                    zp = zp + mu ** 2 * bump_d1(x) * v
                    zpp = zpp + mu * bump_d2(x) * v
        return z, zp, zpp

    def z_mu(s):
        return z_mu_full(s)[0]

    def p_tilde(s):
        z, zp, zpp = z_mu_full(s)
        r2 = abs(z) ** 2
        if r2 == 0.0:
            raise ValueError("deformed orbit still touches the origin")
        pc = 2.0 * z * zpp / r2 ** 2 + z ** 2 * (1.0 - 2.0 * abs(zp) ** 2) / r2 ** 3
        return pc

    cfg = cfg or flow.IntegratorConfig()
    res = solve_ivp(lambda s, y: [abs(z_mu(s)) ** 2], (0.0, S), [0.0],
                    method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    dense_output=True)
    if not res.success:
        raise flow.FlowError(f"time quadrature failed: {res.message}")
    T_mu = float(res.y[0, -1])
    t_sol = res.sol

    def t_of_s(s):
        return float(t_sol(s)[0])

    def s_of_t(t):
        t = float(t) % T_mu
        return brentq(lambda s: t_of_s(s) - t, 0.0, S, xtol=1e-13)

    def u_mu(t):
        z = z_mu(s_of_t(t))
        uc = z * z
        return np.array([uc.real, uc.imag])

    def p_mu(t):
        pc = p_tilde(s_of_t(t))
        return np.array([pc.real, pc.imag])

    ss = np.linspace(0.0, S, 4001)
    min_u = min(abs(z_mu(s)) ** 2 for s in ss)
    return RemovalResult(mu=mu, S=S, T_mu=T_mu, t_of_s=t_of_s, s_of_t=s_of_t,
                         z_mu=z_mu, u_mu=u_mu, p_mu=p_mu, min_u=float(min_u),
                         collisions_s=s_cols)


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
        for t, u, v in zip(ts, us, vs):
            flag = int(np.any(np.isnan(v)))
            row = [f"{t:.16e}"] + [f"{x:.16e}" for x in u]
            row.append(f"{np.linalg.norm(u):.16e}")
            row.append(f"{gensol.energy(t):.16e}")
            row.append(str(flag))
            fh.write(",".join(row) + "\n")
        for c in gensol.collisions:
            d = ",".join(f"{x:.12e}" for x in c.direction)
            fh.write(f"# collision t0={c.t0:.12e} s0={c.s0:.12e} "
                     f"direction={d} energy={c.energy:.12e}\n")
