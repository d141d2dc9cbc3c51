"""Periodic orbits of the perturbed regularized system by multiple shooting.

Closed orbits on the zero level of K_eps are found by damped
Gauss-Newton on an overdetermined residual: evenly spaced shooting
segments, a closure defect (modulo the circle-action phase in 3D), the
energy constraint, and phase conditions anchored at the seed.  Natural
continuation in eps grows families out of the unperturbed manifolds.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import flow, manifolds, model
from .errors import KepregError

__all__ = [
    "ShootingProblem",
    "PeriodicOrbit",
    "ShootingError",
    "residual",
    "residual_and_jacobian",
    "solve",
    "continue_in_epsilon",
    "energy_band",
    "distinctness",
    "save_orbits",
]

RESIDUAL_TOL = 1e-9
STEP_TOL = 1e-11
MAX_BACKTRACKS = 20
MAX_SWEEP_STEPS = 8         # Gauss-Newton steps per strong sweep
MAX_OUTER = 12              # sweep and reduced-step rounds per solve
FD_STEP = 1e-2              # central-difference step of the reduced Jacobian
EPS_STEP_FLOOR = 1e-8       # smallest eps step continuation halves down to
BAND_SAMPLES = 400          # points of an orbit at which E is sampled
# Shooting segments per unit of k: a problem on M_k has m = 8k.  Halving
# the segment length halves the sequential stages of every stacked
# integration, while the Jacobian's SVD grows with its m * D columns.
# Continuing 5 families per case (2 BLAS threads), 8k took 9-42% less
# wall time than 4k in 2D at k = 1..3 and in 3D at k = 1, 2, but 19% more
# in 3D at k = 3, where one SVD of 242 columns takes 15 ms against 4 ms
# at 4k.  No bench workload runs k > 1, so none would guard a choice by
# size.
SEGMENTS_PER_K = 8
# First step, in normalized sigma, of every segment-stack integration.  At
# m = 8k each segment is a quarter turn of z for every k and dimension, so
# the step the integrator settles on barely moves: a cold first Jacobian's
# largest accepted step was 0.225-0.245 on 18 families (2D and 3D,
# k = 1..3, three seeds each, eps = 2.5e-4).  A rejected first step costs
# 12 field evaluations where a short one costs a fraction of a step, so
# the start is 0.8 times the smallest of them.  Re-measure it whenever
# SEGMENTS_PER_K changes.
SIGMA_STEP = 0.18


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

    @property
    def n_unknowns(self):
        extra = 2 if self.spec.dim == 3 else 1      # S, (3D) theta
        return self.m * self.D + extra

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


def pack_unknowns(problem, states, S, theta=0.0):
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
    return pack_unknowns(problem, manifolds.closed_form_flow(X0, s), S)


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


def _integrate_segments(problem, states, S, variational=False):
    """End states (n, m, D) of every segment of a batch, and with
    ``variational`` their fundamental matrices (n, m, D, D).

    All n * m segments are one stacked integration in normalized time:
    row j solves dX/dsigma = h_j f(X) on sigma in [0, 1] with its own
    length h_j = S_j / m (and its Jacobian scaled by h_j), so rows of
    different S share one step sequence, started at SIGMA_STEP.  Dense
    output is off: only the energy band reads it, and ``_finish``
    integrates its own stack.
    """
    D = states.shape[-1]
    h, X = _normalized_stack(states, S)
    if not variational:
        traj = flow.integrate(lambda Y: h * problem.field(Y), X, 1.0,
                              dense=False, first_step=SIGMA_STEP)
        return traj.states[-1].reshape(states.shape)

    def scaled_pair(Y):
        F, J = problem.field_jacobian(Y)
        return h * F, h[..., None] * J

    traj, M = flow.integrate_with_variational(
        scaled_pair, X, 1.0, dense=False, first_step=SIGMA_STEP)
    return (traj.states[-1, :, :D].reshape(states.shape),
            M.reshape(states.shape + (D,)))


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
    res = _residual_rows(problem, states, theta,
                         _integrate_segments(problem, states, S))
    return res.reshape(U.shape[:-1] + res.shape[-1:])


def residual_and_jacobian(problem, unknowns):
    """Residual together with its exact Jacobian from variational flow.

    One stacked variational integration gives every segment's end state
    and fundamental matrix.
    """
    states, S, theta = _unpack_batch(problem, np.reshape(unknowns, (1, -1)))
    D, m = problem.D, problem.m
    ends, M = _integrate_segments(problem, states, S, variational=True)
    res = _residual_rows(problem, states, theta, ends)[0]
    X0, theta, ends, M = states[0, 0], theta[0], ends[0], M[0]
    J = np.zeros((res.size, problem.n_unknowns))
    iS = m * D
    # segment j's defect depends on its own start through M[j] and on the
    # next segment's start (the first one's, rotated, for the closure)
    blocks = np.zeros((m, D, m, D))
    seg = np.arange(m)
    blocks[seg, :, seg, :] = M
    blocks[seg[:-1], :, seg[1:], :] = -np.eye(D)
    J[:iS, :iS] = blocks.reshape(iS, iS)
    J[iS - D:iS, :D] -= _rotation(problem, theta)
    # dPhi_h/dS = field at the endpoint times dh/dS = 1/m
    J[:iS, iS] = np.ravel(problem.field(ends)) / m
    if problem.spec.dim == 3:
        # d/dtheta R(theta) X0 is the circle action's generator at R X0
        J[iS - D:iS, iS + 1] = -model.group_direction(
            _rotation(problem, theta) @ X0)
    row = iS
    J[row, :D] = model.reg_energy_gradient(X0, problem.eps, problem.pert)
    row += 1
    if problem.spec.dim == 3:
        J[row, :D] = model.bl_gradient(X0)
        row += 1
    J[row:, :D] = problem._phase_rows
    return res, J


@dataclass
class PeriodicOrbit:
    """A converged closed orbit of the perturbed regularized system.

    ``monodromy`` is the (D, D) fundamental matrix over one period S at
    X0, composed from the segment matrices of the converged shooting
    Jacobian; ``energy_band`` is read off the converged segment stack.
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
    theta: float = 0.0
    pert_name: str = "zero"
    k: int = 0
    dim: int = 2
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


def _finish(problem, unknowns, res_norm, J):
    """The orbit at converged unknowns, given the shooting Jacobian J
    there (taken once here when the solve holds none).

    The monodromy is the product M_{m-1} ... M_0 of the segment
    fundamental matrices on J's block diagonal; R(theta) is added back
    to the closure block first.  The dense segment stack is integrated
    for the energy band alone.
    """
    if J is None:
        _, J = residual_and_jacobian(problem, unknowns)
    states, S, theta = unpack_unknowns(problem, unknowns)
    X0, D, m = states[0], problem.D, problem.m
    iS = m * D
    blocks = J[:iS, :iS].copy()
    blocks[iS - D:, :D] += _rotation(problem, theta)
    seg = np.arange(m)
    M = np.eye(D)
    for Mj in blocks.reshape(m, D, m, D)[seg, :, seg, :]:
        M = Mj @ M
    h, X = _normalized_stack(states[None], S)
    traj = flow.integrate(lambda Y: h * problem.field(Y), X, 1.0,
                          first_step=SIGMA_STEP)
    band = energy_band(traj, problem.eps, problem.pert)
    # The closure rows add time_shift(), one forcing period, to t, so a
    # residual below RESIDUAL_TOL leaves (t(S) - t(0)) / T within
    # RESIDUAL_TOL / T of 1: the winding index is 1 on every solved orbit.
    return PeriodicOrbit(X0=X0, S=S, eps=problem.eps, eta=1,
                         residual_norm=res_norm, energy_band=band,
                         monodromy=M, theta=theta,
                         pert_name=problem.pert.name, k=problem.spec.k,
                         dim=problem.spec.dim, unknowns=unknowns)


WEAK_CUTOFF = 1e-3          # singular values below this (relative) are weak


def _line_search(problem, u, step, better, trials):
    """First of u + alpha step, alpha = 1, 1/2, 1/4, ... (``trials`` in
    all) whose residual satisfies ``better``.

    The full step is evaluated with ``residual_and_jacobian``, so when
    it is accepted, as it mostly is, the next Newton iteration needs no
    integration of its own; the halved steps use plain ``residual``.
    Returns (trial, residual, Jacobian), the Jacobian None after a
    halved step, or None when every trial is rejected.
    """
    trial = u + step
    res, J = residual_and_jacobian(problem, trial)
    if better(res):
        return trial, res, J
    alpha = 0.5
    for _ in range(trials - 1):
        trial = u + alpha * step
        res = residual(problem, trial)
        if better(res):
            return trial, res, None
        alpha *= 0.5
    return None


def _strong_sweep(problem, u, first):
    """Gauss-Newton restricted to the well-conditioned directions, at
    most MAX_SWEEP_STEPS steps.

    Singular directions of the Jacobian below WEAK_CUTOFF (relative to
    the largest singular value) are frozen; Armijo backtracking (factor
    1/2, at most MAX_BACKTRACKS trials) guards each step.  A full step
    is tried with ``residual_and_jacobian`` and, when accepted, supplies
    the next iteration's residual and Jacobian; after a halved step the
    pair is taken once at the accepted point.  ``first`` is the pair at
    u when the caller already holds it.  Returns the improved unknowns
    together with the residual, the Jacobian and its SVD factors there.
    """
    res, J = first or residual_and_jacobian(problem, u)
    for _ in range(MAX_SWEEP_STEPS):
        rnorm = float(np.linalg.norm(res))
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > WEAK_CUTOFF * sv[0]
        step = -(Vt[keep].T @ ((U[:, keep].T @ res) / sv[keep]))
        if np.linalg.norm(step) < STEP_TOL or rnorm < RESIDUAL_TOL:
            return u, res, J, (U, sv, Vt)
        found = _line_search(problem, u, step,
                             lambda rt: np.linalg.norm(rt) < rnorm,
                             MAX_BACKTRACKS)
        if found is None:
            return u, res, J, (U, sv, Vt)
        u, res, J = found
        if J is None:
            res, J = residual_and_jacobian(problem, u)
    U, sv, Vt = np.linalg.svd(J, full_matrices=False)
    return u, res, J, (U, sv, Vt)


def solve(problem, unknowns0):
    """Solve the multiple-shooting system by a two-level Newton iteration.

    The Jacobian is near-singular along the unperturbed symmetry
    directions of the manifold (for resonance-free forcings the
    bifurcation equation is of second order in eps), so a plain damped
    Gauss-Newton stalls.  The solve alternates (i) Gauss-Newton sweeps
    restricted to the well-conditioned directions with (ii) a reduced
    Newton step on the weak subspace, with the reduced Jacobian taken
    by central differences (step FD_STEP) of the weak residual
    components; at most MAX_OUTER such rounds are taken.  The
    reduced step's full trial is evaluated with ``residual_and_jacobian``
    and, when accepted, opens the next sweep; a halved trial opens it
    with one ``residual_and_jacobian`` at the accepted point.  Converges
    when the residual norm drops below 1e-9; the orbit's monodromy is
    then composed from the Jacobian the solve holds at the converged
    point, taken once more only when the last accepted trial was a
    halved one.
    """
    u = np.asarray(unknowns0, float).copy()
    best_u, best_r = u.copy(), np.inf       # set by the first sweep
    first = None                            # (res, J) at u, when known
    for _ in range(MAX_OUTER):
        try:
            u, res, J, (U, sv, Vt) = _strong_sweep(problem, u, first)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"SVD of the shooting Jacobian failed ({exc}); it is not "
                "finite", best_unknowns=best_u, best_residual=best_r) from exc
        rnorm = float(np.linalg.norm(res))
        if rnorm < best_r:
            best_u, best_r = u.copy(), rnorm
        if rnorm < RESIDUAL_TOL:
            return _finish(problem, u, rnorm, J)
        weak = sv <= WEAK_CUTOFF * sv[0]
        q = int(np.sum(weak))
        if q == 0:
            raise ShootingError(
                f"stalled at residual {rnorm:.3e} with a well-conditioned "
                "Jacobian; the seed is outside the convergence basin",
                best_unknowns=best_u, best_residual=best_r)
        Vw = Vt[weak]
        Uw = U[:, weak]
        g = Uw.T @ res
        # all 2q central-difference probes in one batched residual
        r = residual(problem, u + FD_STEP * np.vstack([Vw, -Vw]))
        Jg = (Uw.T @ (r[:q] - r[q:]).T) / (2.0 * FD_STEP)
        try:
            xi = np.linalg.solve(Jg, -g)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"singular reduced Jacobian at residual {rnorm:.3e}: {exc}",
                best_unknowns=best_u, best_residual=best_r)
        gnorm = float(np.linalg.norm(g))
        found = _line_search(problem, u, Vw.T @ xi,
                             lambda rt: np.linalg.norm(Uw.T @ rt) < gnorm,
                             MAX_BACKTRACKS + 5)
        if found is None:
            raise ShootingError(
                f"reduced Newton step collapsed at residual {rnorm:.3e}",
                best_unknowns=best_u, best_residual=best_r)
        u, res, J = found
        first = None if J is None else (res, J)
    rnorm = float(np.linalg.norm(res))
    if rnorm < RESIDUAL_TOL:
        return _finish(problem, u, rnorm, J)
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
    was tried.  Every integration starts at SIGMA_STEP, as in a direct
    ``solve``, so a solve here gives what ``solve`` gives on the same
    problem and start, bit for bit.
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
    """Write an orbit archive as JSON (one record per orbit), on one line:
    json.dumps without an indent runs the C encoder."""
    payload = {"meta": dict(meta),
               "orbits": [orbit_record(o) for o in orbits]}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
