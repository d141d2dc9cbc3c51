"""Periodic orbits of the perturbed regularized system by multiple shooting.

Closed orbits on the zero level of K_eps are found by damped
Gauss-Newton on an overdetermined residual: evenly spaced shooting
segments, a closure defect (modulo the circle-action phase in 3D), the
energy constraint, and phase conditions anchored at the seed.  Natural
continuation in eps grows families out of the unperturbed manifolds.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import flow, manifolds, model

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
    "load_orbits",
]

RESIDUAL_TOL = 1e-9
STEP_TOL = 1e-11
MAX_ITER = 50
MAX_BACKTRACKS = 20


class ShootingError(RuntimeError):
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
    m: int = 0                      # shooting segments; 0 = default 4k
    eta: int = 1                    # time winding sought: t(S) = t(0) + eta T
    cfg: flow.IntegratorConfig = field(default_factory=flow.IntegratorConfig)

    def __post_init__(self):
        if self.m <= 0:
            self.m = 4 * self.spec.k
        self.X_ref = np.asarray(self.X_ref, float)
        if self.X_ref.size != model.state_dim(self.spec.dim):
            raise ValueError("anchor state has the wrong dimension")

    @property
    def D(self):
        return model.state_dim(self.spec.dim)

    @property
    def n_unknowns(self):
        extra = 2 if self.spec.dim == 3 else 1      # S, (3D) theta
        return self.m * self.D + extra

    def field(self, X):
        return model.reg_field(X, self.eps, self.pert)

    def jacobian(self, X):
        return model.reg_field_jacobian(X, self.eps, self.pert)

    def time_shift(self):
        """Lifted-time advance over one closed orbit, in the t slot."""
        shift = np.zeros(self.D)
        shift[-2] = self.eta * self.pert.period
        return shift


def pack_unknowns(problem, states, S, theta=0.0):
    vec = np.concatenate([np.ravel(states), [S]])
    if problem.spec.dim == 3:
        vec = np.concatenate([vec, [theta]])
    return vec


def unpack_unknowns(problem, vec):
    D, m = problem.D, problem.m
    states = np.asarray(vec[: m * D], float).reshape(m, D)
    S = float(vec[m * D])
    theta = float(vec[m * D + 1]) if problem.spec.dim == 3 else 0.0
    return states, S, theta


def seed_unknowns(problem, X0, S, theta=0.0):
    """Segment initial states by integrating the seed over one period."""
    h = S / problem.m
    states = [np.asarray(X0, float)]
    for _ in range(problem.m - 1):
        traj = flow.integrate(problem.field, states[-1], h, problem.cfg)
        states.append(traj.states[-1, : problem.D])
    return pack_unknowns(problem, np.array(states), S, theta)


def _rotation(problem, theta):
    if problem.spec.dim == 2:
        return np.eye(problem.D)
    return model.group_rotation_matrix(theta)


def _rotation_deriv(problem, theta):
    # d/dtheta of the left multiplication by cos(theta) + i sin(theta)
    dg = -np.sin(theta) * np.eye(4) + np.cos(theta) * model.I_MUL_MATRIX
    dR = np.zeros((10, 10))
    dR[:4, :4] = dg
    dR[4:8, 4:8] = dg
    return dR


def _phase_rows(problem):
    """Gradients (w.r.t. X0) of the scalar phase conditions."""
    rows = [problem.field(problem.X_ref)]
    if problem.spec.dim == 3:
        rows.append(model.group_direction(problem.X_ref))
    return rows


def _segment_cfg(problem):
    # no segment's dense output is ever read
    return replace(problem.cfg, dense=False)


def _segment_targets(problem, states, theta):
    """Where each segment must end: the next segment's start, and for the
    last one the rotated, time-shifted first state."""
    closure = _rotation(problem, theta) @ states[0] + problem.time_shift()
    return np.vstack([states[1:], closure])


def residual(problem, unknowns):
    """Residual vector of the multiple-shooting system.

    Concatenates segment matching defects, the (possibly rotated)
    closure defect, K_eps(X0), (3D) BL(X0) and the anchored time and
    (3D) group phase conditions.  All segments are integrated together
    as one stacked system.
    """
    states, S, theta = unpack_unknowns(problem, unknowns)
    traj = flow.integrate(problem.field, states, S / problem.m,
                          _segment_cfg(problem))
    ends = traj.states[-1]
    parts = [np.ravel(ends - _segment_targets(problem, states, theta))]
    X0 = states[0]
    parts.append([model.reg_energy(X0, problem.eps, problem.pert)])
    if problem.spec.dim == 3:
        parts.append([model.bl_value(X0)])
    for row in _phase_rows(problem):
        parts.append([float(np.dot(row, X0 - problem.X_ref))])
    return np.concatenate([np.atleast_1d(p) for p in parts])


def residual_and_jacobian(problem, unknowns):
    """Residual together with its exact Jacobian from variational flow.

    One stacked variational integration gives every segment's end state
    and fundamental matrix.
    """
    states, S, theta = unpack_unknowns(problem, unknowns)
    D, m = problem.D, problem.m
    n_res = m * D + 2 + (2 if problem.spec.dim == 3 else 0)
    res = np.zeros(n_res)
    J = np.zeros((n_res, problem.n_unknowns))
    iS = m * D
    traj, M = flow.integrate_with_variational(
        problem.field, problem.jacobian, states, S / m, _segment_cfg(problem))
    ends = traj.states[-1, :, :D]
    res[:iS] = np.ravel(ends - _segment_targets(problem, states, theta))
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
        J[iS - D:iS, iS + 1] = -_rotation_deriv(problem, theta) @ states[0]
    X0 = states[0]
    row = m * D
    res[row] = model.reg_energy(X0, problem.eps, problem.pert)
    J[row, :D] = model.reg_energy_gradient(X0, problem.eps, problem.pert)
    row += 1
    if problem.spec.dim == 3:
        res[row] = model.bl_value(X0)
        J[row, :D] = model.bl_gradient(X0)
        row += 1
    for g in _phase_rows(problem):
        res[row] = float(np.dot(g, X0 - problem.X_ref))
        J[row, :D] = g
        row += 1
    return res, J


@dataclass
class PeriodicOrbit:
    X0: np.ndarray
    S: float
    eps: float
    eta: int
    residual_norm: float
    energy_band: tuple               # (min, max) of E = -tau + eps U
    monodromy: flow.MonodromyData
    theta: float = 0.0
    pert_name: str = "zero"
    k: int = 0
    dim: int = 2

    def multipliers(self):
        return self.monodromy.multipliers()


def energy_band(traj, eps, pert, n_samples=400):
    """Range of the physical energy E = -tau + eps U along a trajectory."""
    ss = np.linspace(traj.s0, traj.s_end, n_samples)
    E = model.state_energy(traj.eval(ss).T, eps, pert)
    return float(np.min(E)), float(np.max(E))


def _finish(problem, unknowns, res_norm):
    states, S, theta = unpack_unknowns(problem, unknowns)
    X0 = states[0]
    traj, mono = flow.monodromy(problem.field, problem.jacobian, X0, S,
                                problem.cfg)
    X_end = traj.states[-1, : problem.D]
    try:
        eta = index_of_winding(X0, X_end, problem.pert.period)
    except ValueError as exc:
        raise ShootingError(f"converged orbit rejected: {exc}",
                            best_unknowns=unknowns,
                            best_residual=res_norm) from exc
    band = energy_band(traj, problem.eps, problem.pert)
    return PeriodicOrbit(X0=X0, S=S, eps=problem.eps, eta=eta,
                         residual_norm=res_norm, energy_band=band,
                         monodromy=mono, theta=theta,
                         pert_name=problem.pert.name, k=problem.spec.k,
                         dim=problem.spec.dim)


WEAK_CUTOFF = 1e-3          # singular values below this (relative) are weak


def _strong_sweep(problem, u, max_steps=8):
    """Gauss-Newton restricted to the well-conditioned directions.

    Singular directions of the Jacobian below WEAK_CUTOFF (relative to
    the largest singular value) are frozen; Armijo backtracking (factor
    1/2, at most 20 halvings) guards each step.  Returns the improved
    unknowns together with the last residual and SVD factors.
    """
    res = residual(problem, u)
    for _ in range(max_steps):
        rnorm = float(np.linalg.norm(res))
        res, J = residual_and_jacobian(problem, u)
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > WEAK_CUTOFF * sv[0]
        step = -(Vt[keep].T @ ((U[:, keep].T @ res) / sv[keep]))
        if np.linalg.norm(step) < STEP_TOL or rnorm < RESIDUAL_TOL:
            return u, res, (U, sv, Vt)
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = u + alpha * step
            trial_res = residual(problem, trial)
            if np.linalg.norm(trial_res) < rnorm:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return u, res, (U, sv, Vt)
        u, res = trial, trial_res
    res, J = residual_and_jacobian(problem, u)
    U, sv, Vt = np.linalg.svd(J, full_matrices=False)
    return u, res, (U, sv, Vt)


def solve(problem, unknowns0, max_outer=12, fd_step=1e-2):
    """Solve the multiple-shooting system by a two-level Newton iteration.

    The Jacobian is near-singular along the unperturbed symmetry
    directions of the manifold (for resonance-free forcings the
    bifurcation equation is of second order in eps), so a plain damped
    Gauss-Newton stalls.  The solve alternates (i) Gauss-Newton sweeps
    restricted to the well-conditioned directions with (ii) a reduced
    Newton step on the weak subspace, with the reduced Jacobian taken
    by central differences of the weak residual components.  Converges
    when the residual norm drops below 1e-9.
    """
    u = np.asarray(unknowns0, float).copy()
    best_u, best_r = u.copy(), float(np.linalg.norm(residual(problem, u)))
    for _ in range(max_outer):
        try:
            u, res, (U, sv, Vt) = _strong_sweep(problem, u)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"SVD of the shooting Jacobian failed ({exc}); it is not "
                "finite", best_unknowns=best_u, best_residual=best_r) from exc
        rnorm = float(np.linalg.norm(res))
        if rnorm < best_r:
            best_u, best_r = u.copy(), rnorm
        if rnorm < RESIDUAL_TOL:
            return _finish(problem, u, rnorm)
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
        Jg = np.empty((q, q))
        for j in range(q):
            rp = residual(problem, u + fd_step * Vw[j])
            rm = residual(problem, u - fd_step * Vw[j])
            Jg[:, j] = (Uw.T @ (rp - rm)) / (2.0 * fd_step)
        try:
            xi = np.linalg.solve(Jg, -g)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"singular reduced Jacobian at residual {rnorm:.3e}: {exc}",
                best_unknowns=best_u, best_residual=best_r)
        gnorm = float(np.linalg.norm(g))
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 5):
            trial = u + alpha * (Vw.T @ xi)
            gt = float(np.linalg.norm(Uw.T @ residual(problem, trial)))
            if gt < gnorm:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise ShootingError(
                f"reduced Newton step collapsed at residual {rnorm:.3e}",
                best_unknowns=best_u, best_residual=best_r)
        u = trial
    rnorm = float(np.linalg.norm(residual(problem, u)))
    if rnorm < RESIDUAL_TOL:
        return _finish(problem, u, rnorm)
    raise ShootingError(
        f"no convergence in {max_outer} outer iterations "
        f"(residual {rnorm:.3e})",
        best_unknowns=best_u, best_residual=best_r)


def continue_in_epsilon(spec, pert, X_seed, S_seed, eps_targets, m=0,
                        cfg=None, step_floor=1e-8):
    """Natural-parameter continuation from an unperturbed seed.

    Solves at each target eps using the previous converged orbit as
    seed, halving the eps-step on failure down to ``step_floor``.
    Returns (family, diagnostics); the family is partial when the floor
    is hit, with the failure recorded in the diagnostics.
    """
    cfg = cfg or flow.IntegratorConfig()
    family = []
    diags = []
    X_cur, S_cur, th_cur = np.asarray(X_seed, float), float(S_seed), 0.0
    eps_cur = 0.0
    for eps_target in eps_targets:
        while eps_cur < eps_target - 1e-15:
            eps_try = eps_target
            while True:
                problem = ShootingProblem(spec=spec, eps=eps_try, pert=pert,
                                          X_ref=X_cur, m=m, cfg=cfg)
                try:
                    orbit = solve(problem, seed_unknowns(problem, X_cur,
                                                         S_cur, th_cur))
                except (ShootingError, flow.FlowError) as exc:
                    if eps_try - eps_cur <= step_floor:
                        diags.append({"eps": eps_try, "error": str(exc)})
                        return family, diags
                    eps_try = eps_cur + (eps_try - eps_cur) / 2.0
                    continue
                X_cur, S_cur, th_cur = orbit.X0, orbit.S, orbit.theta
                eps_cur = eps_try
                if abs(eps_cur - eps_target) < 1e-15:
                    family.append(orbit)
                break
        if eps_target == 0.0:
            problem = ShootingProblem(spec=spec, eps=0.0, pert=pert,
                                      X_ref=X_cur, m=m, cfg=cfg)
            family.append(solve(problem, seed_unknowns(problem, X_cur,
                                                       S_cur, th_cur)))
    return family, diags


def index_of_winding(X0, X_end, T):
    """Winding index eta from the lifted-time advance over one period."""
    ratio = (X_end[-2] - X0[-2]) / T
    eta = int(round(ratio))
    if abs(ratio - eta) > 1e-6:
        raise ValueError(
            f"time winding {ratio} is not close to an integer; the orbit "
            "does not close in the extended system")
    if eta < 1:
        raise ValueError(f"nonpositive winding index {eta}")
    return eta


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


def save_orbits(orbits, path, meta=None):
    """Write an orbit archive as JSON (one record per orbit)."""
    payload = {"meta": dict(meta or {}),
               "orbits": [orbit_record(o) for o in orbits]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def load_orbits(path):
    with open(path) as fh:
        return json.load(fh)
