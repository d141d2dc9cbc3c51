"""Numerical integration of the regularized and physical fields.

Steps an explicit high-order embedded Runge-Kutta pair (DOP853) with
dense output, and adds collision localization on the dense interpolant
plus fundamental-matrix (variational) propagation.  The stepper lives in
the package (``_solvers``, a port of scipy's, which the tests check it
against bit for bit), and so does the bracketed root finder of the
collision search and the time maps, so the package imports numpy alone.
The dense output is the DOP853 continuous extension (Hairer, Norsett and
Wanner, Solving ODEs I, II.6): every accepted step's interpolation
coefficients are kept in one array and evaluated for all query points at
once, bit for bit as scipy's ``OdeSolution`` evaluates them step by
step.  A variational
integration controls its step size on the state components alone (a
mask on the stepper's error norm); the fundamental-matrix columns follow
the state's accepted steps (internal numerical differentiation, Hairer,
Norsett and Wanner, Solving ODEs I).
"""

from dataclasses import dataclass

import numpy as np

from . import _output, _solvers, model
from .errors import KepregError

__all__ = [
    "Trajectory",
    "FlowError",
    "integrate",
    "integrate_with_variational",
    "monodromy",
    "detect_events",
    "invariant_report",
    "trajectory_to_csv",
]

# Tolerances of every DOP853 integration: the 1e-9 gates on the shooting
# residual and on the invariant drift, and acceptance criteria 1-11,
# were all measured at these values.
REL_TOL = 1e-12
ABS_TOL = 1e-14
COLLISION_R2_THRESHOLD = 1e-16
EVENT_GRID = 8              # points per accepted step bracketing collisions
EVENT_XTOL = 1e-13          # tolerance in s of a located collision
# Relative tolerance of a bracketed root: 4 eps |x| spans two to four
# float spacings of x, so a step tol/2 inside a bracket still moves.
ROOT_RTOL = 4 * np.finfo(float).eps
# The bisection safeguard of _bracketed_roots halves every bracket at
# least once in three steps, and 2^64 exceeds the ratio of every bracket
# here to its tolerance (the widest, [0, S] of a collision removal with
# S < 33 for k <= 6, is below 2^49 times its 1e-13): a bracket still open
# after these steps has a tolerance finer than the float spacing of x.
ROOT_MAXITER = 3 * 64


class FlowError(KepregError):
    """Integration failure; carries the last good state when available."""

    def __init__(self, message, last_s=None, last_state=None):
        super().__init__(message)
        self.last_s = last_s
        self.last_state = last_state


@dataclass
class Trajectory:
    """Accepted-step samples of an integration plus dense output.

    ``states`` has shape (n_steps + 1, D_aug) for one initial state and
    (n_steps + 1, m, D_aug) for a stack of m; D_aug exceeds ``dim`` by
    the fundamental-matrix columns of a variational integration, and
    ``eval`` reads the dense output in the same layout, points first.  No
    dense output => end points only: ``s`` and ``states`` then hold the
    start and the end of the integration, ``n_steps`` is 1 and ``sol``
    is None.

    ``sol`` holds the DOP853 interpolation coefficients F_0..F_6 of
    every step, shape (7,) + states.shape[1:] + (n_steps,): the step
    axis comes last, so the points read at once lie along the fastest
    axis.  On step i, with x = (s - s_i) / (s_{i+1} - s_i), the dense
    output is states[i] + x (F_0 + (1 - x) (F_1 + x (F_2 + ... + x F_6))).
    """

    s: np.ndarray
    states: np.ndarray
    sol: object                 # DOP853 coefficients (see above) or None
    nfev: int
    dim: int                    # state dimension (augmented columns excluded)

    def eval(self, s, rows=None):
        """Dense-output states at s, augmented columns stripped, of shape
        s.shape + states.shape[1:-1] + (dim,): the layout of ``states``.

        s may have any shape.  Each point is read on the step scipy's
        ``OdeSolution`` picks: a node belongs to the step that ends there,
        and points beyond either end extrapolate the first or last step.
        The values equal scipy's bit for bit.  ``rows``, for a stack and
        an array of row indices of the shape of s, reads each point on
        its row of the stack alone, giving s.shape + (dim,): the values
        the full read takes on each point's row, without the other rows.
        """
        if self.sol is None:
            raise ValueError("trajectory was integrated without dense output")
        s = np.asarray(s)
        pts = s.reshape(-1)
        i = np.clip(np.searchsorted(self.s, pts) - 1, 0, self.n_steps - 1)
        x = (pts - self.s[i]) / (self.s[i + 1] - self.s[i])
        if rows is None:
            y_old = np.take(self.states[..., : self.dim], i, axis=0)
            y = _horner(self.sol[..., : self.dim, :][..., i], x,
                        np.moveaxis(y_old, 0, -1))
        else:
            rows = np.ravel(rows)
            # sol[:, rows, :dim, i] puts the point axis first
            F = np.moveaxis(self.sol[:, rows, : self.dim, i], 0, -1)
            y = _horner(F, x, self.states[i, rows, : self.dim].T)
        # evaluated with the points along the fastest axis, then viewed
        # points first
        return y.transpose(-1, *range(y.ndim - 1)).reshape(
            s.shape + y.shape[:-1])

    @property
    def s0(self):
        return float(self.s[0])

    @property
    def s_end(self):
        return float(self.s[-1])

    @property
    def n_steps(self):
        return len(self.s) - 1


def _horner(F, x, y_old):
    """scipy's ``Dop853DenseOutput`` evaluation on gathered steps.

    F is (7,) + y_old.shape and x broadcasts against y_old; the
    operations and their order are scipy's, so the result is too.
    """
    y = np.zeros(y_old.shape)
    factors = (x, 1 - x)
    for i in range(7):
        y += F[6 - i]
        y *= factors[i % 2]
    y += y_old
    return y


def _solve(fun, Y0, s_end, dense, dim, state, first_step):
    """Integrate dY/ds = fun(Y) for Y0 of shape (D_aug,) or (m, D_aug).

    Steps the DOP853 stepper of ``_solvers`` at REL_TOL and ABS_TOL as
    scipy's ``solve_ivp`` steps its DOP853, but collects the accepted
    steps and their interpolation coefficients only when ``dense`` is
    set; otherwise it keeps the start and end points alone.  A boolean
    ``state`` mask over the flattened Y0 limits step control to those
    components (None: all of them).  ``first_step`` replaces the
    starting-step estimate; left None (a cold start) the integration is
    ``solve_ivp``'s bit for bit.
    """
    if s_end < 0.0:
        raise ValueError("s_end must be >= 0: integration runs forward")
    if dense and s_end == 0.0:
        raise ValueError("dense output needs an interval of nonzero length")
    shape = Y0.shape
    stepper = _solvers.DOP853(fun, Y0, float(s_end), REL_TOL, ABS_TOL,
                              first_step, state)
    ts, ys, coeffs = [0.0], [stepper.y], []
    while not stepper.finished:
        if not stepper.step():
            raise FlowError(
                f"integration failed: {_solvers.TOO_SMALL_STEP}",
                last_s=stepper.t, last_state=stepper.y.reshape(shape))
        if dense:
            ts.append(stepper.t)
            ys.append(stepper.y)
            coeffs.append(stepper.dense())
    if not dense:
        ts.append(stepper.t)
        ys.append(stepper.y)
    sol = (np.stack(coeffs, axis=-1).reshape((7,) + shape + (-1,))
           if dense else None)
    return Trajectory(s=np.array(ts), states=np.reshape(ys, (-1,) + shape),
                      sol=sol, nfev=stepper.nfev, dim=dim)


def integrate(field, X0, s_end, dense=True, first_step=None):
    """Integrate dX/ds = field(X) forward over [0, s_end], s_end >= 0.

    ``field`` maps a state to its derivative (autonomous form).  X0 is
    one state (D,) or a stack (m, D) of initial states, integrated as
    one system on one step sequence; ``field`` then maps (m, D) arrays.
    ``dense`` keeps the accepted-step samples and the dense interpolant;
    without it the trajectory holds the end points only, and no
    interpolation stages are evaluated.  ``first_step`` is the size of
    the first trial step; None (a cold start) leaves it to the stepper's
    estimate, scipy's as in ``solve_ivp``.
    """
    X0 = np.asarray(X0, float)
    return _solve(field, X0, s_end, dense, X0.shape[-1], None, first_step)


def integrate_with_variational(field_jacobian, X0, s_end, dense=True,
                               first_step=None):
    """Integrate the state together with the fundamental matrix.

    ``field_jacobian`` maps a state to the pair (field, Jacobian), so
    each stage evaluates both from one call.  Returns (trajectory, M)
    with M the fundamental solution at s_end >= 0, M(0) = Id.  Step control
    reads the state columns only: the matrix columns are integrated on
    the state's accepted steps and do not shorten them, so the state
    takes the steps of a plain ``integrate`` give or take one.  For a
    stack X0 (m, D), ``field_jacobian`` maps (m, D) states to (m, D) and
    (m, D, D), and M is the (m, D, D) stack.  The right-hand side is
    assembled here, in ``fun``: each row (D + D*D,) is viewed as
    (D + 1, D), the state and then M, and each stage writes F and J M
    into one new array of that shape.  ``dense`` and ``first_step`` are
    as for ``integrate`` (shooting passes 1.0, its whole normalized
    interval); a cold start chooses the first step from every column.
    """
    X0 = np.asarray(X0, float)
    D = X0.shape[-1]
    rows = X0.shape[:-1] + (D + 1, D)
    state = np.zeros(rows, bool)
    state[..., 0, :] = True

    def fun(Y):
        Y = Y.reshape(rows)
        F, J = field_jacobian(Y[..., 0, :])
        out = np.empty(rows)
        out[..., 0, :] = F
        np.matmul(J, Y[..., 1:, :], out=out[..., 1:, :])
        return out

    Y0 = np.empty(rows)
    Y0[..., 0, :] = X0
    Y0[..., 1:, :] = np.eye(D)
    traj = _solve(fun, Y0.reshape(X0.shape[:-1] + (-1,)), s_end, dense, D,
                  state.ravel(), first_step)
    return traj, traj.states[-1, ..., D:].reshape(X0.shape + (D,))


def monodromy(field_jacobian, X0, S):
    """Fundamental matrix of dX/ds = f(X) over [0, S] from X0.

    ``field_jacobian`` is as for ``integrate_with_variational``.  X0 is
    one state (D,), giving M (D, D), or a stack (m, D) integrated as one
    system, giving M (m, D, D).  S is one length, or for a stack one
    length per row (m,).  Returns (trajectory, M) as
    ``integrate_with_variational`` does.  The integration runs in
    normalized time: row j solves dX/dsigma = S_j f(X) on sigma in
    [0, 1] (its Jacobian scaled by S_j), so rows of different S share
    one step sequence, and the returned trajectory runs over sigma.  It
    holds the end points only: no caller reads an interpolant.

    The package computes no monodromy with it: the certificate reads
    the eps = 0 monodromy from ``manifolds.closed_form_jacobian`` and a
    shooting orbit composes its own.  It stays as the integrated
    cross-check of those, and because the benchmark's tracer wraps it
    by name.
    """
    X0 = np.asarray(X0, float)
    h = np.asarray(S, float)[..., None]

    def scaled(X):
        F, J = field_jacobian(X)
        return h * F, h[..., None] * J

    return integrate_with_variational(scaled, X0, 1.0, dense=False)


# ---------------------------------------------------------------------------
# collision detection

def _radial_momentum(X):
    """<z, w> of a state (D,) or a stack (..., D)."""
    z, w, _, _ = model.unpack_state(X)
    return np.vecdot(z, w)


def _bracketed_roots(f, lo, hi, f_lo, f_hi, xtol, rtol=ROOT_RTOL):
    """Roots of f in the brackets [lo[j], hi[j]], all refined at once.

    ``f_lo`` and ``f_hi`` are the values of f at the ends, which every
    caller holds already.  ``f(x, i)`` maps points x in the brackets i
    (an index array) to the values of f there; it is called once per
    iteration on one point of each bracket still open.
    Each point is a secant (regula falsi) step with the Illinois rule: an
    end kept twice in a row has its value halved.  A step lands at least
    tol/2 inside its bracket, and a bracket that has not halved in two
    steps takes a bisection step.  A bracket closes when it is no wider
    than tol = xtol + rtol |x|, x being its end of smaller |f|, which is
    returned; an end or a point where f is exactly 0 is returned exactly.
    A bracket without a sign change or a NaN value of f raises
    ValueError; a bracket still open after ROOT_MAXITER steps raises
    FlowError with the best points in ``last_s``.
    """
    a, b = np.array(lo, float), np.array(hi, float)
    n = a.size
    fa, fb = _finite(f_lo, a), _finite(f_hi, b)
    if np.any(np.sign(fa) * np.sign(fb) > 0.0):
        raise ValueError("f must have different signs at the ends of "
                         "every bracket")
    zero = (fa == 0.0) | (fb == 0.0)        # closed at once, on that end
    a[zero] = b[zero] = np.where(fa == 0.0, a, b)[zero]
    fa[zero] = fb[zero] = 0.0
    ga, gb = fa.copy(), fb.copy()           # Illinois-weighted values
    kept = np.zeros(n, np.int8)             # +1: a kept last step, -1: b
    w1, w2 = np.full(n, np.inf), np.full(n, np.inf)  # widths 1, 2 steps ago
    steps = 0
    while True:
        x = np.where(np.abs(fa) <= np.abs(fb), a, b)
        tol = xtol + rtol * np.abs(x)
        width = np.abs(b - a)
        j = np.flatnonzero(width > tol)
        if j.size == 0:
            return x
        if steps == ROOT_MAXITER:
            raise FlowError(f"{j.size} bracketed roots still open after "
                            f"{ROOT_MAXITER} steps", last_s=x)
        steps += 1
        wj = width[j]
        frac = np.clip(ga[j] / (ga[j] - gb[j]), tol[j] / (2 * wj),
                       1.0 - tol[j] / (2 * wj))
        frac[wj > w2[j] / 2] = 0.5
        w2[j], w1[j] = w1[j], wj
        c = a[j] + frac * (b[j] - a[j])
        fc = _finite(f(c, j), c)
        on_a = (np.sign(fc) == np.sign(fa[j])) | (fc == 0.0)
        on_b = ~on_a | (fc == 0.0)
        ja, jb = j[on_a], j[on_b]
        gb[ja[kept[ja] == -1]] *= 0.5       # b kept a second time
        ga[jb[kept[jb] == 1]] *= 0.5        # a kept a second time
        kept[ja], kept[jb] = -1, 1
        a[ja], fa[ja], ga[ja] = c[on_a], fc[on_a], fc[on_a]
        b[jb], fb[jb], gb[jb] = c[on_b], fc[on_b], fc[on_b]


def _finite(fx, x):
    """The values fx of f at x as a new float array, or ValueError if one
    is NaN."""
    fx = np.array(fx, float)
    if np.any(np.isnan(fx)):
        raise ValueError(f"f is NaN at x = {x[np.isnan(fx)]}")
    return fx


def detect_events(traj):
    """Collisions z = 0 of a trajectory, localized on its dense output.

    |z|^2 has a quadratic zero at a collision, so the smooth quantity
    <z, w> (proportional to d|z|^2/ds) is used instead.  Each accepted
    step is subdivided into EVENT_GRID points; the -/+ sign changes of
    <z, w> are refined together by ``_bracketed_roots`` on the dense
    interpolant, and a localized state is a collision when its |z|^2 is
    below COLLISION_R2_THRESHOLD.  Returns the s of the collisions as a
    1-D array, ascending: the brackets are disjoint and in grid order.
    """
    if traj.sol is None:
        raise ValueError("collision detection needs dense output")
    grid = np.append(np.linspace(traj.s[:-1], traj.s[1:], EVENT_GRID,
                                 endpoint=False, axis=1).ravel(), traj.s[-1])
    vals = _radial_momentum(traj.eval(grid))
    v0, v1 = vals[:-1], vals[1:]
    i = np.flatnonzero((v0 == 0.0) | ((v0 < 0.0) & (v1 > 0.0)))
    s_star = _bracketed_roots(lambda s, _: _radial_momentum(traj.eval(s)),
                              grid[i], grid[i + 1], v0[i], v1[i], EVENT_XTOL)
    z = model.unpack_state(traj.eval(s_star))[0]
    return s_star[np.vecdot(z, z) < COLLISION_R2_THRESHOLD]


# ---------------------------------------------------------------------------
# invariants and export

def invariant_report(traj, eps, pert):
    """Maximum drift of K_eps (and BL in 3D) over the sample nodes."""
    states = traj.states[:, : traj.dim]
    K = model.reg_energy(states, eps, pert)
    report = {"k_drift": float(np.max(np.abs(K - K[0]))),
              "tau_drift": float(np.max(np.abs(states[:, -1] - states[0, -1])))}
    if traj.dim == 10:
        bl = model.bl_value(states)
        report["bl_drift"] = float(np.max(np.abs(bl - bl[0])))
    return report


def trajectory_to_csv(traj, path, eps, pert, header_lines):
    """One row per accepted step: s, state components, K_eps, (3D) BL,
    under header_lines (``_output.write_csv``)."""
    states = traj.states[:, : traj.dim]
    zd = model.unpack_state(states)[0].shape[-1]
    cols = ([f"z{i}" for i in range(zd)] + [f"w{i}" for i in range(zd)]
            + ["t", "tau", "K"])
    values = [traj.s, states, model.reg_energy(states, eps, pert)]
    if traj.dim == 10:
        cols.append("BL")
        values.append(model.bl_value(states))
    rows = np.column_stack(values)
    fmt = ",".join(["%.16e"] * rows.shape[1])
    _output.write_csv(path, header_lines, "s," + ",".join(cols),
                      (fmt % tuple(row) for row in rows.tolist()))
