"""Periodic orbits of the perturbed regularized system by multiple shooting.

Closed orbits on the zero level of K_eps are found by damped
Gauss-Newton on an overdetermined residual: evenly spaced shooting
segments, a closure defect (modulo the circle-action phase in 3D), the
energy constraint, and phase conditions anchored at the seed.  Each
Newton step is taken on the system condensed to (X0, S, theta) by
eliminating the interior segment starts.  Natural continuation in eps
grows families out of the unperturbed manifolds.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _output, flow, manifolds, model
from .errors import KepregError

__all__ = [
    "ShootingProblem",
    "PeriodicOrbit",
    "ShootingError",
    "ShootingJacobian",
    "residual",
    "residual_and_jacobian",
    "solve",
    "continue_in_epsilon",
    "energy_band",
    "orbit_trajectory",
    "distinctness",
    "save_orbits",
]

RESIDUAL_TOL = 1e-9
STEP_TOL = 1e-11
MAX_BACKTRACKS = 20
MAX_SWEEP_STEPS = 8         # Gauss-Newton steps per strong sweep
MAX_OUTER = 12              # sweep and reduced-step rounds per solve
FD_STEP = 1e-2              # central-difference step of the reduced Jacobian
# The reduced step is a least-squares solve without the reduced
# Jacobian's singular values below REDUCED_CUTOFF of the largest.  One
# weak direction is the forcing's symmetry (rotating u while shifting t),
# along which an exact solve stepped far off M_k for the next sweep to
# undo: on the 2D k = 1 seed of default_rng(2) at eps = 1e-3 it did not
# converge in MAX_OUTER rounds, where the truncated one takes 6.  Over
# the 45 reduced steps of the 6 acceptance families (2D and 3D,
# k = 1..3) and theorem-demo's l = 3 branches of both bench configs at
# m = 48k, 39 dropped one value (7.3e-5 to 0.094 of the largest), 6
# dropped none, and every value kept was at least 0.114 (0.095 and 0.115
# at 24k).  The gap is narrow: with 12 more families (rng seeds 140 + k
# and 240 + k), 96 steps, a dropped value reached 0.098, a kept one
# 0.103, and one step dropped two (BENCH_29.json).
REDUCED_CUTOFF = 0.1
EPS_STEP_FLOOR = 1e-8       # smallest eps step continuation halves down to
BAND_SAMPLES = 400          # points of an orbit at which E is sampled
# Shooting segments per unit of k: a problem on M_k has m = 48k.  At a
# fixed m per k every segment spans the same phase of z for every k and
# dimension, and at 48k every segment-stack integration is one DOP853
# step, the whole segment: 12 field evaluations per residual or
# Jacobian, where 24k took two steps (24).  On 18 acceptance-style
# families plus theorem-demo's l = 3 branches of both bench configs
# (BENCH_29.json) no step was rejected and the largest first-step error
# norm was 0.23; the norm grows like the step's eighth power, so that
# is about 20% of margin in step length.  Their CPU time (median of 9,
# 1 BLAS thread) was 2.5 s in all, against 3.3 s at 24k (a first
# step of 0.45) and 3.2 s at 64k.  36k, 40k and 42k took 2.2-2.5 s with
# less margin: first-step norms up to 1.84 (4 steps rejected), 0.85 and
# 0.66.
SEGMENTS_PER_K = 48


class ShootingError(KepregError):
    """Solver failure; carries the best iterate seen."""

    def __init__(self, message, best_unknowns=None, best_residual=None):
        super().__init__(message)
        self.best_unknowns = best_unknowns
        self.best_residual = best_residual


@dataclass
class ShootingProblem:
    spec: manifolds.ManifoldSpec
    eps: float
    pert: object
    X_ref: np.ndarray               # anchor state for the phase conditions

    def __post_init__(self):
        self.X_ref = np.asarray(self.X_ref, float)
        if self.X_ref.size != model.state_dim(self.spec.dim):
            raise ValueError("anchor state has the wrong dimension")
        # Gradients (w.r.t. X0) of the scalar phase conditions, rows
        # (n_phase, D): X_ref, eps and the perturbation fix them for the
        # problem.
        rows = [self.field(self.X_ref)]
        if self.spec.dim == 3:
            rows.append(model.group_direction(self.X_ref))
        self._phase_rows = np.array(rows)

    @property
    def D(self):
        return model.state_dim(self.spec.dim)

    @property
    def m(self):
        """Number of shooting segments."""
        return SEGMENTS_PER_K * self.spec.k

    def field(self, X):
        return model.reg_field(X, self.eps, self.pert)

    def field_jacobian(self, X):
        return model.reg_field_jacobian(X, self.eps, self.pert)

    def time_shift(self):
        """Lifted-time advance over one closed orbit, one forcing period,
        in the t slot."""
        shift = np.zeros(self.D)
        shift[-2] = self.pert.period
        return shift


def pack_unknowns(problem, states, S, theta):
    vec = np.concatenate([np.ravel(states), [S]])
    if problem.spec.dim == 3:
        vec = np.concatenate([vec, [theta]])
    return vec


def unpack_unknowns(problem, vec):
    states, S, theta = _unpack_batch(problem, np.reshape(vec, (1, -1)))
    return states[0], float(S[0]), float(theta[0])


def _unpack_batch(problem, U):
    """Segment starts (n, m, D), lengths S (n,) and phases theta (n,) of
    a batch U (n, n_unknowns)."""
    D, m = problem.D, problem.m
    U = np.asarray(U, float)
    states = U[:, : m * D].reshape(len(U), m, D)
    theta = U[:, m * D + 1] if problem.spec.dim == 3 else np.zeros(len(U))
    return states, U[:, m * D], theta


def seed_unknowns(problem, X0):
    """Unknowns on the unperturbed orbit through X0 on M_k (else a
    ValueError): S = S_k, theta = 0 and the segment starts its closed
    form at s = jS/m, j = 0 .. m-1, read in one call, not integrated."""
    S = manifolds._check_on_manifold(problem.spec, X0).S
    s = np.arange(problem.m) * S / problem.m
    return pack_unknowns(problem, manifolds.closed_form_flow(X0, s), S, 0.0)


def _rotation(problem, theta):
    if problem.spec.dim == 2:
        return np.eye(problem.D)
    return model.group_rotation_matrix(theta)


def _normalized_stack(states, S):
    """Row lengths h (n * m, 1) and stacked starts (n * m, D) of a batch
    in normalized time."""
    n, m, D = states.shape
    h = np.repeat(np.asarray(S, float) / m, m)[:, None]
    return h, states.reshape(n * m, D)


def _segment_flow(problem, states, S, dense):
    """The normalized-time trajectory of every segment of a batch
    (n, m, D) of lengths S (n,), integrated as one stack: row j solves
    dX/dsigma = h_j f(X) on sigma in [0, 1], h_j = S_j / m, so rows of
    different S share one step sequence.  The first trial step is the
    whole interval: at m = 48k one accepted step covers it (12 field
    evaluations, 16 with the interpolation stages of ``dense``), and a
    step the error test rejects is retried shorter as any other.
    ``residual`` reads its end states, ``_finish`` the energy band off
    its dense output.
    """
    h, X = _normalized_stack(states, S)
    return flow.integrate(lambda Y: h * problem.field(Y), X, 1.0,
                          dense=dense, first_step=1.0)


def _residual_rows(problem, states, theta, ends):
    """Residual rows (n, n_res) of a batch from its segment ends."""
    X0 = states[:, 0]
    closure = np.matvec(_rotation(problem, theta), X0) + problem.time_shift()
    targets = np.concatenate([states[:, 1:], closure[:, None]], axis=1)
    parts = [(ends - targets).reshape(len(X0), -1),
             model.reg_energy(X0, problem.eps, problem.pert)[:, None]]
    if problem.spec.dim == 3:
        parts.append(model.bl_value(X0)[:, None])
    parts.append((X0 - problem.X_ref) @ problem._phase_rows.T)
    return np.concatenate(parts, axis=1)


def residual(problem, unknowns):
    """Residual vector of the multiple-shooting system.

    Concatenates segment matching defects, the (possibly rotated)
    closure defect, K_eps(X0), (3D) BL(X0) and the anchored time and
    (3D) group phase conditions.  ``unknowns`` is one vector
    (n_unknowns,) or a batch (n, n_unknowns), giving (n_res,) or
    (n, n_res); every segment of every row is integrated in one stack.
    """
    U = np.asarray(unknowns, float)
    states, S, theta = _unpack_batch(problem, U.reshape(-1, U.shape[-1]))
    ends = _segment_flow(problem, states, S, dense=False).states[-1]
    res = _residual_rows(problem, states, theta, ends.reshape(states.shape))
    return res.reshape(U.shape[:-1] + res.shape[-1:])


@dataclass
class ShootingJacobian:
    """The shooting Jacobian at one point, by its nonzero blocks.

    Segment j's defect rows hold ``segments[j]`` = M_j in block column
    j, -I in block column j + 1 (the closure rows, j = m - 1: -R(theta)
    in block column 0) and ``dS[j]`` in the S column; the closure rows
    also hold ``dtheta`` (D, 1) in the theta column (3D; (D, 0) in 2D).
    The energy, (3D) BL and phase rows depend on X0 alone, through
    ``x0_rows``.  ``rotation`` is R(theta).

    The segment matrices are composed once per Jacobian, on first use,
    into the levels of one scan (``scan``), through which ``_propagate``
    runs the elimination's recursion for any batch of residuals and
    condensed steps: log2(m + 1) batched products, whatever m.
    """

    segments: np.ndarray            # (m, D, D)
    dS: np.ndarray                  # (m, D)
    dtheta: np.ndarray              # (D, n_theta)
    rotation: np.ndarray            # (D, D)
    x0_rows: np.ndarray             # (n_res - m D, D)

    @cached_property
    def scan(self):
        """Levels (m + 1, D, D) of a Hillis-Steele scan of [I, M_0, ...,
        M_{m-1}], each one batched product of the one before: row j of
        level i is M_{j-1} ... M_{j-2^i}, the 2^i segment matrices that
        end at start j (all of them, P_j = M_{j-1} ... M_0, when
        j <= 2^i).  The last level holds every P_j, and its last row
        P_m is the monodromy."""
        m, D = self.dS.shape
        levels = [np.concatenate([np.eye(D)[None], self.segments])]
        span = 1
        while span <= m:
            Q = levels[-1]
            levels.append(np.concatenate([Q[:span], Q[span:] @ Q[:-span]]))
            span *= 2
        return levels


def _propagate(jac, res, v):
    """The segment start moves dx_0 .. dx_m (m + 1, D, n) of the
    recursion dx_{j+1} = M_j dx_j + F_j dS + r_j from dx_0 = dX0, for
    full residuals res (n, n_res) and condensed steps v = (dX0, dS[,
    dtheta]) (n, n_v), both 2-D, a single row of either shared.

    Level i of ``jac.scan`` carries to every start j >= 2^i the terms
    summed at start j - 2^i, so after the last one dx_j holds every
    term from dX0 and the segments before j: one batched (D x D)(D x n)
    product per level.
    """
    m, D = jac.dS.shape
    dx = np.empty((m + 1, D, max(len(res), len(v))))
    dx[0] = v[:, :D].T
    dx[1:] = (jac.dS[..., None] * v[:, D]
              + res[:, : m * D].T.reshape(m, D, -1))
    span = 1
    for level in jac.scan[:-1]:
        dx[span:] += level[span:] @ dx[:-span]
        span *= 2
    return dx


def residual_and_jacobian(problem, unknowns):
    """Residual together with its exact Jacobian from variational flow.

    One stacked variational integration, on the lengths and first step
    of ``_segment_flow`` with each row's Jacobian scaled by its h_j too,
    gives every segment's end state and fundamental matrix.  The
    Jacobian is a ``ShootingJacobian``, its blocks alone: the (m D)^2
    matrix is never assembled.
    """
    states, S, theta = _unpack_batch(problem, np.reshape(unknowns, (1, -1)))
    h, X = _normalized_stack(states, S)

    def scaled_pair(Y):
        F, J = problem.field_jacobian(Y)
        return h * F, h[..., None] * J

    traj, M = flow.integrate_with_variational(
        scaled_pair, X, 1.0, dense=False, first_step=1.0)
    ends = traj.states[-1, :, :problem.D]
    res = _residual_rows(problem, states, theta, ends[None])[0]
    X0, R = states[0, 0], _rotation(problem, theta[0])
    rows = [model.reg_energy_gradient(X0, problem.eps, problem.pert)]
    dtheta = np.zeros((problem.D, 0))
    if problem.spec.dim == 3:
        # d/dtheta R(theta) X0 is the circle action's generator at R X0
        dtheta = -model.group_direction(R @ X0)[:, None]
        rows.append(model.bl_gradient(X0))
    # dPhi_h/dS = field at the endpoint times dh/dS = 1/m
    return res, ShootingJacobian(
        segments=M, dS=problem.field(ends) / problem.m, dtheta=dtheta,
        rotation=R, x0_rows=np.vstack(rows + [problem._phase_rows]))


def _condensed_rows(problem, jac, res, v):
    """The rows left (n, n_c) of the linear model J du + r of jac when
    its matching rows are held at zero (the closure, energy, (3D) BL and
    phase rows), for full residuals res (n, n_res) and condensed steps
    v = (dX0, dS[, dtheta]) (n, n_v); a single row of either is shared.

    The matching rows vanish when the segment starts move as
    ``_propagate``'s recursion, which eliminates the m - 1 interior
    starts (Bock and Plitt 1984).  The closure rows then read
    dx_m - R(theta) dX0 plus the theta column times its step.
    """
    D, m = problem.D, problem.m
    res, v = np.atleast_2d(res), np.atleast_2d(v)
    closure = (_propagate(jac, res, v)[m].T - v[:, :D] @ jac.rotation.T
               + v[:, D + 1:] @ jac.dtheta.T)
    return np.hstack([closure, res[:, m * D:] + v[:, :D] @ jac.x0_rows.T])


def _expand(problem, jac, res, v):
    """The full steps du (n, n_unknowns) of condensed steps v (n, n_v)
    at full residuals res (n, n_res), a single row of either shared:
    the segment starts dx_0 .. dx_{m-1} of ``_propagate``, then (dS[,
    dtheta]).
    """
    D, m = problem.D, problem.m
    res, v = np.atleast_2d(res), np.atleast_2d(v)
    dx = _propagate(jac, res, v)[:m]
    n = dx.shape[-1]
    return np.hstack([dx.transpose(2, 0, 1).reshape(n, m * D),
                      np.broadcast_to(v[:, D:], (n, v.shape[1] - D))])


def _condense(problem, res, jac):
    """The condensed residual (n_c,) and matrix (n_c, n_v) at (res, jac):
    ``_condensed_rows`` at v = 0 and their derivative in v, 8 x 7 in 2D
    and 14 x 12 in 3D for every m.  The matrix's closure block is
    P_m - R(theta) = M_{m-1} ... M_0 - R(theta) and its S column
    carries every segment's F_j to the end; the residual's closure rows
    carry every matching defect there."""
    n_v = problem.D + 1 + jac.dtheta.shape[1]
    rows = _condensed_rows(
        problem, jac, np.vstack([res, np.zeros((n_v, res.size))]),
        np.vstack([np.zeros(n_v), np.eye(n_v)]))
    return rows[0], rows[1:].T


@dataclass
class PeriodicOrbit:
    """A converged closed orbit of the perturbed regularized system.

    ``monodromy`` is the (D, D) fundamental matrix over one period S at
    X0, the product M_{m-1} ... M_0 of the segment matrices of the
    shooting Jacobian that ``solve`` condensed at the converged point,
    the last product of its scan (no integration of its own);
    ``energy_band`` is read off the converged segment stack.
    ``unknowns`` are the converged shooting unknowns, from which
    ``continue_in_epsilon`` seeds its next solve; None on an orbit not
    built by ``solve``.
    """

    X0: np.ndarray
    S: float
    eps: float
    eta: int
    residual_norm: float
    energy_band: tuple               # (min, max) of E = -tau + eps U
    monodromy: np.ndarray
    k: int
    dim: int
    theta: float = 0.0
    pert_name: str = "zero"
    unknowns: np.ndarray = None

    def multipliers(self):
        return np.linalg.eigvals(self.monodromy)


def energy_band(traj, eps, pert):
    """Range of the physical energy E = -tau + eps U along an orbit.

    ``traj`` is a stack of m segments integrated over one common interval
    (as in normalized time) that trace the orbit in row order; a
    trajectory over the whole orbit is the stack of m = 1.  E is sampled
    at BAND_SAMPLES evenly spaced points of the whole orbit, each read on
    the segment it falls on alone.
    """
    m = traj.states.shape[1]
    x = np.linspace(0.0, m, BAND_SAMPLES)   # orbit position in segments
    seg = np.minimum(np.floor(x).astype(int), m - 1)
    sigma = traj.s0 + (x - seg) * (traj.s_end - traj.s0)
    E = model.state_energy(traj.eval(sigma, rows=seg), eps, pert)
    return float(np.min(E)), float(np.max(E))


def _finish(problem, unknowns, res_norm, jac):
    """The orbit at converged unknowns, given the shooting Jacobian jac
    there.

    The monodromy is P_m = M_{m-1} ... M_0, the last product of jac's
    scan, which the condensed Jacobian already composed; no (m D)^2
    matrix is built.  The energy band is read off the residual's own
    segment stack, ``_segment_flow`` with dense output.
    """
    states, S, theta = unpack_unknowns(problem, unknowns)
    M = jac.scan[-1][-1].copy()
    traj = _segment_flow(problem, states[None], S, dense=True)
    band = energy_band(traj, problem.eps, problem.pert)
    # The closure rows add time_shift(), one forcing period, to t, so a
    # residual below RESIDUAL_TOL leaves (t(S) - t(0)) / T within
    # RESIDUAL_TOL / T of 1: the winding index is 1 on every solved orbit.
    return PeriodicOrbit(X0=states[0], S=S, eps=problem.eps, eta=1,
                         residual_norm=res_norm, energy_band=band,
                         monodromy=M, theta=theta,
                         pert_name=problem.pert.name, k=problem.spec.k,
                         dim=problem.spec.dim, unknowns=unknowns)


def orbit_trajectory(orbit, pert):
    """The dense trajectory of orbit over [0, S]: its m segments,
    integrated as one ``_segment_flow`` stack from the segment starts
    and chained into one row (``_chain``).

    The starts are the orbit's ``unknowns``; an orbit at eps = 0 built
    without them takes ``seed_unknowns``' closed-form starts, and one at
    eps != 0 is a ValueError.  Each segment is integrated from its own
    start, so no error carries from one segment to the next, and the
    trajectory passes through every start.
    """
    spec = manifolds.ManifoldSpec(k=orbit.k, T=pert.period, dim=orbit.dim)
    problem = ShootingProblem(spec=spec, eps=orbit.eps, pert=pert,
                              X_ref=orbit.X0)
    unknowns = orbit.unknowns
    if unknowns is None:
        if orbit.eps != 0.0:
            raise ValueError(f"an orbit at eps = {orbit.eps!r} needs its "
                             "shooting unknowns for its trajectory")
        unknowns = seed_unknowns(problem, orbit.X0)
    states, S, _ = unpack_unknowns(problem, unknowns)
    return _chain(_segment_flow(problem, states[None], S, dense=True), S)


def _chain(stack, S):
    """One trajectory over [0, S] of a dense stack of m rows over sigma
    in [0, 1] that trace one orbit of length S in row order.

    Step i of row j becomes step j n + i, at s = (j + sigma_i) S / m,
    with the row's state there as its node and the row's DOP853
    coefficients F_1 .. F_6.  F_0, the step's end node less its node, is
    the stepper's own within a row; on a row's last step it takes up the
    matching defect start_{j+1} - end_j, so the dense output is
    continuous.
    """
    _, m, D = stack.states.shape
    n = stack.n_steps
    s = np.append((np.arange(m)[:, None] + stack.s[:-1]).ravel() * S / m, S)
    states = np.concatenate([stack.states[:-1].swapaxes(0, 1).reshape(-1, D),
                             stack.states[-1, -1:]])
    sol = np.concatenate([np.diff(states, axis=0).T[None],
                          stack.sol[1:].swapaxes(1, 2).reshape(6, D, m * n)])
    return flow.Trajectory(s=s, states=states, sol=sol, nfev=stack.nfev,
                           dim=D)


WEAK_CUTOFF = 1e-3          # singular values below this (relative) are weak


def _line_search(problem, u, step, better):
    """First of u + alpha step, alpha = 1, 1/2, 1/4, ... (MAX_BACKTRACKS
    trials in all) whose residual satisfies ``better``.

    Every trial is one ``residual_and_jacobian`` call, whose residual
    rows are those of ``residual`` bit for bit, so an accepted trial
    hands its Jacobian to the next Newton iteration and no point is
    integrated twice.  Returns (trial, residual, Jacobian), or None when
    every trial is rejected.
    """
    for j in range(MAX_BACKTRACKS):
        trial = u + 0.5 ** j * step
        res, J = residual_and_jacobian(problem, trial)
        if better(res):
            return trial, res, J
    return None


def _strong_sweep(problem, u, res, jac):
    """Gauss-Newton on the condensed system restricted to its
    well-conditioned directions, at most MAX_SWEEP_STEPS steps.

    Singular directions of the condensed Jacobian below WEAK_CUTOFF
    (relative to the largest singular value) are frozen.  The strong
    step in (X0, S, theta) is expanded to every segment start by the
    elimination, so it zeroes the linearized matching defects as well.
    Backtracking on the full residual (``_line_search``: factor 1/2, at
    most MAX_BACKTRACKS trials) guards each step.  The full step zeroes
    the linearized matching rows and leaves the weak part of the
    condensed residual in the others, so the sweep ends once that part
    is no smaller than the full residual: the step would then only move
    the weak defect off the matching rows into the closure rows, and its
    line search would reject every trial.  (res, jac) is the residual
    and Jacobian at u, and every accepted trial hands on its own, taken
    with it.  Returns the improved unknowns together with the residual,
    the Jacobian, the condensed residual and the SVD factors of the
    condensed matrix there.
    """
    for steps in range(MAX_SWEEP_STEPS + 1):
        rnorm = float(np.linalg.norm(res))
        cres, matrix = _condense(problem, res, jac)
        U, sv, Vt = np.linalg.svd(matrix, full_matrices=False)
        keep = sv > WEAK_CUTOFF * sv[0]
        strong = U[:, keep].T @ cres
        if (steps == MAX_SWEEP_STEPS or rnorm < RESIDUAL_TOL
                or np.linalg.norm(cres - U[:, keep] @ strong) >= rnorm):
            break
        step = _expand(problem, jac, res,
                       -(Vt[keep].T @ (strong / sv[keep])))[0]
        if np.linalg.norm(step) < STEP_TOL:
            break
        found = _line_search(problem, u, step,
                             lambda rt: np.linalg.norm(rt) < rnorm)
        if found is None:
            break
        u, res, jac = found
    return u, res, jac, cres, (U, sv, Vt)


def solve(problem, unknowns0):
    """Solve the multiple-shooting system by a two-level Newton iteration.

    Every Newton step is taken on the condensed system (``_condense``),
    8 x 7 (2D) or 14 x 12 (3D) for every m, and expanded back to every
    segment start; no (m D)^2 matrix is assembled or factored.  The
    condensed Jacobian is near-singular along the unperturbed symmetry
    directions of the manifold (for resonance-free forcings the
    bifurcation equation is of second order in eps), so a plain damped
    Gauss-Newton stalls.  The solve alternates (i) Gauss-Newton sweeps
    restricted to the well-conditioned directions with (ii) a reduced
    Newton step on the weak subspace: its Jacobian is taken by central
    differences (step FD_STEP) along the weak directions, expanded to
    keep the matching rows linearly at zero, and solved by least squares
    without its singular values below REDUCED_CUTOFF of the largest; at
    most MAX_OUTER such rounds are taken.  The reduced step backtracks as
    the sweeps do (``_line_search``, at most MAX_BACKTRACKS trials), and
    every trial is evaluated with its Jacobian, so an accepted one opens
    the next sweep.  Converges when the full residual, matching rows
    included, drops below RESIDUAL_TOL; the orbit's monodromy is then
    composed from the Jacobian the solve holds at the converged point.
    """
    u = np.asarray(unknowns0, float).copy()
    best_u, best_r = u.copy(), np.inf       # set by the first sweep
    res, jac = residual_and_jacobian(problem, u)
    for _ in range(MAX_OUTER):
        try:
            u, res, jac, cres, (U, sv, Vt) = _strong_sweep(problem, u,
                                                           res, jac)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"SVD of the shooting Jacobian failed ({exc}); it is not "
                "finite", best_unknowns=best_u, best_residual=best_r) from exc
        rnorm = float(np.linalg.norm(res))
        if rnorm < best_r:
            best_u, best_r = u.copy(), rnorm
        if rnorm < RESIDUAL_TOL:
            return _finish(problem, u, rnorm, jac)
        weak = sv <= WEAK_CUTOFF * sv[0]
        q = int(np.sum(weak))
        if q == 0:
            raise ShootingError(
                f"stalled at residual {rnorm:.3e} with a well-conditioned "
                "Jacobian; the seed is outside the convergence basin",
                best_unknowns=best_u, best_residual=best_r)
        Uw = U[:, weak]
        # unit directions of the full unknowns: FD_STEP is a probe's
        # length there
        Vw = _expand(problem, jac, np.zeros(res.size), Vt[weak])
        Vw /= np.linalg.norm(Vw, axis=1)[:, None]
        g = Uw.T @ cres

        def weak_rows(rt):
            """Uw^T of the condensed rows of full residuals rt."""
            return Uw.T @ _condensed_rows(problem, jac, rt,
                                          np.zeros(Vt.shape[1])).T

        # all 2q central-difference probes in one batched residual
        r = weak_rows(residual(problem,
                               u + FD_STEP * np.vstack([Vw, -Vw])))
        Jg = (r[:, :q] - r[:, q:]) / (2.0 * FD_STEP)
        try:
            xi = np.linalg.lstsq(Jg, -g, rcond=REDUCED_CUTOFF)[0]
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"SVD of the reduced Jacobian failed at residual "
                f"{rnorm:.3e}: {exc}",
                best_unknowns=best_u, best_residual=best_r) from exc
        gnorm = float(np.linalg.norm(g))
        found = _line_search(
            problem, u, Vw.T @ xi,
            lambda rt: np.linalg.norm(weak_rows(rt)) < gnorm)
        if found is None:
            raise ShootingError(
                f"reduced Newton step collapsed at residual {rnorm:.3e}",
                best_unknowns=best_u, best_residual=best_r)
        u, res, jac = found
    rnorm = float(np.linalg.norm(res))
    if rnorm < RESIDUAL_TOL:
        return _finish(problem, u, rnorm, jac)
    raise ShootingError(
        f"no convergence in {MAX_OUTER} outer iterations "
        f"(residual {rnorm:.3e})",
        best_unknowns=best_u, best_residual=best_r)


def continue_in_epsilon(spec, pert, X_seed, eps_targets):
    """Natural-parameter continuation from an unperturbed seed.

    The first solve is seeded with ``seed_unknowns`` at X_seed, the
    closed-form orbit through it on M_k; every later eps step, and every
    halved retry, starts at the last converged orbit's ``unknowns`` (a
    zero-order predictor), so no integration runs outside ``solve``.  A
    target above the current eps halves its eps-step on a ShootingError
    down to EPS_STEP_FLOOR; a target at or below it gets one solve.  A
    FlowError from any integration of a solve, a Newton trial's as much
    as the starting point's, ends the continuation at once.  A smaller
    eps step might avoid a wild trial, but each of up to
    log2(step / EPS_STEP_FLOOR) retries could run the failing
    integration again; no bench or acceptance family raises one.
    Returns (family, diagnostics); the family is partial when a target
    fails, with the failure recorded in the diagnostics at the eps that
    was tried.  Every integration starts with the whole segment as its
    first trial step, as in a direct ``solve``, so a solve here gives
    what ``solve`` gives on the same problem and start, bit for bit.
    """
    family = []
    diags = []
    X_cur, eps_cur, u_cur = np.asarray(X_seed, float), 0.0, None
    for eps_target in eps_targets:
        eps_try = eps_target
        while True:
            problem = ShootingProblem(spec=spec, eps=eps_try, pert=pert,
                                      X_ref=X_cur)
            if u_cur is None:
                u_cur = seed_unknowns(problem, X_cur)
            try:
                orbit = solve(problem, u_cur)
            except flow.FlowError as exc:
                diags.append({"eps": eps_try, "error": str(exc)})
                return family, diags
            except ShootingError as exc:
                if eps_try - eps_cur <= EPS_STEP_FLOOR:
                    diags.append({"eps": eps_try, "error": str(exc)})
                    return family, diags
                eps_try = eps_cur + (eps_try - eps_cur) / 2.0
                continue
            X_cur, eps_cur, u_cur = orbit.X0, eps_try, orbit.unknowns
            if eps_try == eps_target:
                family.append(orbit)
                break
            eps_try = eps_target
    return family, diags


def distinctness(orbits):
    """Pairwise energy-band separation report.

    Two orbits are distinct when their physical-energy bands
    [min E, max E] are disjoint.  Returns a report with one entry per
    pair and an overall flag.
    """
    pairs = []
    all_disjoint = True
    for a in range(len(orbits)):
        for b in range(a + 1, len(orbits)):
            lo_a, hi_a = orbits[a].energy_band
            lo_b, hi_b = orbits[b].energy_band
            gap = max(lo_b - hi_a, lo_a - hi_b)
            disjoint = gap > 0.0
            all_disjoint = all_disjoint and disjoint
            pairs.append({"pair": (a, b), "gap": float(gap),
                          "disjoint": bool(disjoint)})
    return {"pairs": pairs, "all_disjoint": all_disjoint}


# ---------------------------------------------------------------------------
# orbit archive

def orbit_record(orbit):
    mult = orbit.multipliers()
    return {
        "X0": list(map(float, orbit.X0)),
        "S": orbit.S,
        "eps": orbit.eps,
        "eta": orbit.eta,
        "theta": orbit.theta,
        "residual_norm": orbit.residual_norm,
        "energy_band": list(orbit.energy_band),
        "multipliers_re": list(map(float, mult.real)),
        "multipliers_im": list(map(float, mult.imag)),
        "pert_name": orbit.pert_name,
        "k": orbit.k,
        "dim": orbit.dim,
    }


def save_orbits(orbits, path, meta):
    """Write an orbit archive as JSON (one record per orbit), on one line
    (``_output.write_json``)."""
    _output.write_json(path, {"meta": dict(meta),
                              "orbits": [orbit_record(o) for o in orbits]})
