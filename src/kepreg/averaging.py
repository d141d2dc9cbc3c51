"""Bifurcation from infinity for the periodically forced Kepler problem.

For u'' = -u/|u|^3 + eps p(t) with T-periodic forcing p of nonzero mean
p_bar, a family of large T-periodic solutions exists with
u_eps ~ eps^{-1/2} x*, where x* = p_bar / |p_bar|^{3/2} is the unique
equilibrium of the averaged equation.  The rescaled problem
x'' = eps^{3/2} (-x/|x|^3 + p(t)) is solved directly by shooting in
physical coordinates (the orbits stay far from the origin) and mapped
back.
"""

from dataclasses import dataclass

import numpy as np

from . import flow, shooting
from .errors import KepregError
from .model import ForcingSpec

__all__ = [
    "AveragingError",
    "ForcingSpec",
    "averaged_equilibrium",
    "averaged_jacobian_matrix",
    "averaged_jacobian_det",
    "solve_scaled_periodic",
    "bifurcation_from_infinity",
    "fit_scaling_slope",
    "family_to_csv",
]


# Self-check tolerances.  x* = p_bar/|p_bar|^{3/2} satisfies its defining
# relation up to a few ulps of |p_bar|; the closed-form determinant and
# the assembled 2N x 2N one agree up to LAPACK's rounding.
EQUILIBRIUM_TOL = 1e-12
DET_TOL = 1e-10


class AveragingError(KepregError):
    """An averaging self-check failed."""


def averaged_equilibrium(p_bar):
    """Equilibrium x* = p_bar/|p_bar|^{3/2} of the averaged equation.

    Returns None when the mean vanishes (no bifurcation from infinity).
    The defining relation x*/|x*|^3 = p_bar is verified to
    ``EQUILIBRIUM_TOL`` relative to max(1, |p_bar|); a failure raises
    ``AveragingError``.
    """
    p_bar = np.asarray(p_bar, float)
    norm = float(np.linalg.norm(p_bar))
    if norm == 0.0:
        return None
    x = p_bar / norm ** 1.5
    check = x / np.linalg.norm(x) ** 3
    if np.linalg.norm(check - p_bar) > EQUILIBRIUM_TOL * max(1.0, norm):
        raise AveragingError(
            "averaged equilibrium fails its defining relation")
    return x


def _kepler_hessian(x):
    """S = |x|^{-5} (-|x|^2 Id + 3 x (x)^T), the Jacobian of -x/|x|^3."""
    x = np.asarray(x, float)
    r = float(np.linalg.norm(x))
    return (-r ** 2 * np.eye(x.size) + 3.0 * np.outer(x, x)) / r ** 5


def averaged_jacobian_matrix(x):
    """First-order Jacobian [[0, Id], [S, 0]] of the averaged system at x.

    Its determinant at x* is the paper's non-degeneracy of the averaged
    equilibrium, checked by ``averaged_jacobian_det`` (acceptance
    criterion 10).
    """
    x = np.asarray(x, float)
    n = x.size
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = _kepler_hessian(x)
    return M


def averaged_jacobian_det(x):
    """Determinant magnitude 2 |x|^{-3N} of the averaged-map Jacobian.

    At x* it is nonzero: the paper's non-degenerate averaged equilibrium,
    from which the large periodic solutions bifurcate (acceptance
    criterion 10).  Cross-checked against the numerically assembled
    block matrix to ``DET_TOL`` relative (``AveragingError`` otherwise);
    the block antidiagonal contributes a dimension-dependent sign, so
    the comparison (and the return value) is in absolute value.
    """
    x = np.asarray(x, float)
    if np.linalg.norm(x) == 0.0:
        raise ValueError("Jacobian undefined at x = 0")
    closed = 2.0 * float(np.linalg.norm(x)) ** (-3 * x.size)
    assembled = abs(float(np.linalg.det(averaged_jacobian_matrix(x))))
    if abs(assembled - closed) > DET_TOL * closed:
        raise AveragingError(
            f"assembled determinant {assembled} disagrees with the closed "
            f"form {closed}")
    return closed


# ---------------------------------------------------------------------------
# shooting for the rescaled problem

# Newton stops at a period-map defect of 1e-10, above what the 1e-12 relative
# integration resolves; with the exact Jacobian it needs a few steps, not 30.
RESIDUAL_TOL = 1e-10
MAX_ITER = 30
N_SAMPLES = 400             # times per period at which an orbit is read


def _scaled_system(spec, lam):
    """Field and Jacobian [[0, Id, 0], [lam S(x), 0, lam p'(t)], [0, 0, 0]] of
    x'' = lam (-x/|x|^3 + p(t)), lam = eps^{3/2}, on Y = (x, x', t), as
    one callable Y -> (field, Jacobian)."""
    n = spec.dim

    def field_jacobian(Y):
        x, r = Y[:n], np.linalg.norm(Y[:n])
        p, dp, _ = spec.jet(Y[-1])          # one Fourier evaluation
        F = np.concatenate([Y[n:2 * n], lam * (-x / r ** 3 + p), [1.0]])
        J = np.zeros((2 * n + 1, 2 * n + 1))
        J[:n, n:2 * n] = np.eye(n)
        J[n:2 * n, :n] = lam * _kepler_hessian(x)
        J[n:2 * n, -1] = lam * dp
        return F, J

    return field_jacobian


def solve_scaled_periodic(spec, eps, y0):
    """T-periodic solution of x'' = eps^{3/2}(-x/|x|^3 + p(t)) by shooting.

    Newton on the period map from y0 = (x, x'), one variational integration
    of (x, x', t) from t = 0 per step.  Returns (y0, dense trajectory over
    one period); raises ``FlowError`` or ``ShootingError`` (best iterate).
    """
    field_jacobian = _scaled_system(spec, eps ** 1.5)
    y0 = np.asarray(y0, float)
    d = y0.size
    best_y, best_r = y0, np.inf
    for _ in range(MAX_ITER):
        traj, M = flow.integrate_with_variational(
            field_jacobian, np.append(y0, 0.0), spec.period)
        defect = traj.states[-1, :d] - y0
        dnorm = float(np.linalg.norm(defect))
        if dnorm < RESIDUAL_TOL:
            return y0, traj
        if dnorm < best_r:
            best_y, best_r = y0, dnorm
        y0 = y0 + np.linalg.solve(M[:d, :d] - np.eye(d), -defect)
    raise shooting.ShootingError(
        f"shooting did not converge in {MAX_ITER} Newton steps (defect "
        f"{dnorm:.3e})", best_unknowns=best_y, best_residual=best_r)


@dataclass
class FamilyEntry:
    eps: float
    y0: np.ndarray              # rescaled initial condition (x, x')
    min_u: float                # min_t |u_eps|
    sup_dev: float              # sup_t |eps^{1/2} u_eps - x*|
    defect: float


def bifurcation_from_infinity(spec, eps_list):
    """Family of large T-periodic solutions for decreasing eps.

    For each eps the rescaled problem is solved and mapped back via
    u_eps = eps^{-1/2} x.  Returns (entries, diagnostics); a failed eps
    leaves a partial family with the failure recorded.
    """
    x_star = averaged_equilibrium(spec.mean())
    if x_star is None:
        raise ValueError("zero-mean forcing has no bifurcation from infinity")
    entries = []
    diags = []
    y0 = np.concatenate([x_star, np.zeros(spec.dim)])     # at rest at x*
    for eps in eps_list:
        try:
            y0, traj = solve_scaled_periodic(spec, eps, y0)
        except (flow.FlowError, shooting.ShootingError) as exc:
            diags.append({"eps": eps, "error": str(exc)})
            return entries, diags
        xs = traj.eval(np.linspace(0.0, spec.period, N_SAMPLES))[: spec.dim]
        radii = np.linalg.norm(xs, axis=0)
        dev = np.max(np.linalg.norm(xs - x_star[:, None], axis=0))
        entries.append(FamilyEntry(
            eps=float(eps), y0=y0,
            min_u=float(np.min(radii) / np.sqrt(eps)),
            sup_dev=float(dev),
            defect=float(np.linalg.norm(traj.states[-1, :y0.size] - y0))))
    return entries, diags


def fit_scaling_slope(entries):
    """Log-log slope of min |u_eps| against eps (expected -1/2)."""
    if len(entries) < 2:
        raise ValueError("need at least two family entries for a slope fit")
    x = np.log([e.eps for e in entries])
    y = np.log([e.min_u for e in entries])
    return float(np.polyfit(x, y, 1)[0])


def family_to_csv(entries, path, header_lines=()):
    """Summary CSV: eps, min|u_eps|, sup-deviation from x*, defect, slope."""
    slope = fit_scaling_slope(entries) if len(entries) >= 2 else float("nan")
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# fitted_slope = {slope:.6f}\n")
        fh.write("eps,min_u,sup_dev,defect\n")
        for e in entries:
            fh.write(f"{e.eps:.6e},{e.min_u:.16e},{e.sup_dev:.16e},"
                     f"{e.defect:.16e}\n")
