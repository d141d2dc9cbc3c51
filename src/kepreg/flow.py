"""Numerical integration of the regularized and physical fields.

Wraps an explicit high-order embedded Runge-Kutta pair (DOP853) with
dense output, and adds event localization on the dense interpolant plus
fundamental-matrix (variational) propagation.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import model

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "FlowError",
    "EventSpec",
    "Event",
    "MonodromyData",
    "integrate",
    "integrate_with_variational",
    "monodromy",
    "detect_events",
    "collision_event_spec",
    "time_section_spec",
    "invariant_report",
    "trajectory_to_csv",
]

COLLISION_R2_THRESHOLD = 1e-16


class FlowError(RuntimeError):
    """Integration failure; carries the last good state when available."""

    def __init__(self, message, last_s=None, last_state=None):
        super().__init__(message)
        self.last_s = last_s
        self.last_state = last_state


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_step: float = np.inf
    dense: bool = True

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Accepted-step samples of an integration plus dense output.

    ``states`` has shape (n_steps + 1, D_aug) for one initial state and
    (n_steps + 1, m, D_aug) for a stack of m; D_aug exceeds ``dim`` by
    the fundamental-matrix columns of a variational integration.
    """

    s: np.ndarray
    states: np.ndarray
    sol: object                 # scipy OdeSolution or None
    nfev: int
    dim: int                    # state dimension (augmented columns excluded)

    def eval(self, s):
        """Dense-output state at s (augmented columns stripped)."""
        if self.sol is None:
            raise ValueError("trajectory was integrated without dense output")
        out = self.sol(s)
        if self.states.ndim == 3:
            # a stack: split the flat components by segment
            out = out.reshape(self.states.shape[1:] + out.shape[1:])
        return out[..., : self.dim] if out.ndim == self.states.ndim - 1 \
            else out[..., : self.dim, :]

    @property
    def s0(self):
        return float(self.s[0])

    @property
    def s_end(self):
        return float(self.s[-1])

    @property
    def n_steps(self):
        return len(self.s) - 1


def _solve(fun, Y0, s_end, cfg, dim):
    """Integrate dY/ds = fun(Y) for Y0 of shape (D_aug,) or (m, D_aug)."""
    shape = Y0.shape
    res = solve_ivp(lambda s, y: fun(y.reshape(shape)).ravel(), (0.0, s_end),
                    Y0.ravel(), method="DOP853", rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, max_step=cfg.max_step,
                    dense_output=cfg.dense)
    if not res.success:
        raise FlowError(f"integration failed: {res.message}",
                        last_s=res.t[-1] if len(res.t) else None,
                        last_state=res.y[:, -1].reshape(shape)
                        if res.y.size else None)
    return Trajectory(s=res.t, states=res.y.T.reshape((-1,) + shape),
                      sol=res.sol if cfg.dense else None, nfev=res.nfev,
                      dim=dim)


def integrate(field, X0, s_end, cfg=None):
    """Integrate dX/ds = field(X) over [0, s_end].

    ``field`` maps a state to its derivative (autonomous form).  X0 is
    one state (D,) or a stack (m, D) of initial states, integrated as
    one system on one step sequence; ``field`` then maps (m, D) arrays.
    """
    cfg = cfg or IntegratorConfig()
    X0 = np.asarray(X0, float)
    return _solve(field, X0, s_end, cfg, X0.shape[-1])


def integrate_with_variational(field, jacobian, X0, s_end, cfg=None):
    """Integrate the state together with the fundamental matrix.

    Returns (trajectory, M) with M the fundamental solution at s_end,
    M(0) = Id.  The matrix columns ride through the same step/error
    machinery as the state.  For a stack X0 (m, D), ``jacobian`` maps
    (m, D) states to (m, D, D) and M is the (m, D, D) stack.
    """
    cfg = cfg or IntegratorConfig()
    X0 = np.asarray(X0, float)
    D = X0.shape[-1]
    flat = X0.shape[:-1] + (D * D,)

    def fun(Y):
        X = Y[..., :D]
        M = Y[..., D:].reshape(X0.shape + (D,))
        return np.concatenate([field(X), (jacobian(X) @ M).reshape(flat)],
                              axis=-1)

    eye = np.broadcast_to(np.eye(D).ravel(), flat)
    traj = _solve(fun, np.concatenate([X0, eye], axis=-1), s_end, cfg, D)
    return traj, traj.states[-1, ..., D:].reshape(X0.shape + (D,))


@dataclass
class MonodromyData:
    """Fundamental matrix at a period plus basic bookkeeping."""

    M: np.ndarray
    X0: np.ndarray
    field_dir: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        self.det = float(np.linalg.det(self.M))

    def multipliers(self):
        return np.linalg.eigvals(self.M)


def monodromy(field, jacobian, X0, S, cfg=None):
    """Fundamental matrix over one period of a closed orbit."""
    traj, M = integrate_with_variational(field, jacobian, X0, S, cfg)
    return traj, MonodromyData(M=M, X0=np.asarray(X0, float),
                               field_dir=field(np.asarray(X0, float)))


# ---------------------------------------------------------------------------
# event detection

@dataclass
class EventSpec:
    """Scalar event function with a crossing direction.

    direction +1 detects -/+ crossings, -1 detects +/-, 0 both.
    ``fn`` maps one state (D,) to a scalar and a stack (..., D) to
    (...,).  ``accept`` optionally filters localized events by state.
    """

    name: str
    fn: object                     # state (..., D) -> (...,)
    direction: int = 0
    accept: object = None          # state -> bool


@dataclass
class Event:
    name: str
    s: float
    state: np.ndarray
    value: float


def collision_event_spec(threshold=COLLISION_R2_THRESHOLD):
    """Collision events z = 0, localized on the radial momentum.

    |z|^2 has a quadratic zero at a collision, so the smooth quantity
    <z, w> (proportional to d|z|^2/ds) is used: a -/+ crossing whose
    localized state has |z|^2 below ``threshold`` is a collision.
    """

    def radial_momentum(X):
        zd = (X.shape[-1] - 2) // 2
        return np.vecdot(X[..., :zd], X[..., zd:2 * zd])

    def near_origin(X):
        z, _, _, _ = model.unpack_state(X)
        return float(np.dot(z, z)) < threshold

    return EventSpec(name="collision", fn=radial_momentum, direction=+1,
                     accept=near_origin)


def time_section_spec(t_target):
    """Crossing of the section t(s) = t_target (t is monotone in s)."""

    def gap(X):
        return X[..., -2] - t_target

    return EventSpec(name=f"t={t_target}", fn=gap, direction=+1)


def detect_events(traj, specs, subdiv=8, s_tol=1e-13):
    """Localize events of a trajectory on its dense output.

    Each accepted step is subdivided, sign changes of the event function
    are bracketed and refined by brentq on the dense interpolant.
    """
    if traj.sol is None:
        raise ValueError("event detection needs dense output")
    grid = np.append(np.linspace(traj.s[:-1], traj.s[1:], subdiv,
                                 endpoint=False, axis=1).ravel(), traj.s[-1])
    events = []
    for spec in specs:
        vals = spec.fn(traj.eval(grid).T)
        v0, v1 = vals[:-1], vals[1:]
        rising = v0 < 0.0
        wanted = {+1: rising, -1: ~rising}.get(spec.direction, True)
        for i in np.flatnonzero((v0 == 0.0) | ((v0 * v1 < 0.0) & wanted)):
            s_star = grid[i] if v0[i] == 0.0 else brentq(
                lambda s: spec.fn(traj.eval(s)), grid[i], grid[i + 1],
                xtol=s_tol)
            state = traj.eval(s_star)
            if spec.accept is None or spec.accept(state):
                events.append(Event(name=spec.name, s=float(s_star),
                                    state=state, value=float(spec.fn(state))))
    events.sort(key=lambda e: e.s)
    return events


# ---------------------------------------------------------------------------
# invariants and export

def invariant_report(traj, eps, pert, n_samples=None):
    """Maximum drift of K_eps (and BL in 3D) over the sample nodes."""
    states = traj.states[:, : traj.dim]
    K = model.reg_energy(states, eps, pert)
    report = {"k_drift": float(np.max(np.abs(K - K[0]))),
              "tau_drift": float(np.max(np.abs(states[:, -1] - states[0, -1])))}
    if traj.dim == 10:
        bl = model.bl_value(states)
        report["bl_drift"] = float(np.max(np.abs(bl - bl[0])))
    return report


def trajectory_to_csv(traj, path, eps, pert, header_lines=()):
    """One row per accepted step: s, state components, K_eps, (3D) BL."""
    states = traj.states[:, : traj.dim]
    zd = (traj.dim - 2) // 2
    cols = ([f"z{i}" for i in range(zd)] + [f"w{i}" for i in range(zd)]
            + ["t", "tau", "K"])
    values = [traj.s, states, model.reg_energy(states, eps, pert)]
    if traj.dim == 10:
        cols.append("BL")
        values.append(model.bl_value(states))
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("s," + ",".join(cols) + "\n")
        for row in np.column_stack(values):
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")
