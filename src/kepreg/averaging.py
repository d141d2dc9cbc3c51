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
from scipy.integrate import solve_ivp

from .model import ForcingSpec

__all__ = [
    "ForcingSpec",
    "averaged_equilibrium",
    "averaged_jacobian_matrix",
    "averaged_jacobian_det",
    "solve_scaled_periodic",
    "bifurcation_from_infinity",
    "fit_scaling_slope",
    "family_to_csv",
]


def averaged_equilibrium(p_bar):
    """Equilibrium x* = p_bar/|p_bar|^{3/2} of the averaged equation.

    Returns None when the mean vanishes (no bifurcation from infinity).
    The defining relation x*/|x*|^3 = p_bar is verified to 1e-12.
    """
    p_bar = np.asarray(p_bar, float)
    norm = float(np.linalg.norm(p_bar))
    if norm == 0.0:
        return None
    x = p_bar / norm ** 1.5
    check = x / np.linalg.norm(x) ** 3
    if np.linalg.norm(check - p_bar) > 1e-12 * max(1.0, norm):
        raise AssertionError("averaged equilibrium fails its defining relation")
    return x


def _kepler_hessian(x):
    """S = |x|^{-5} (-|x|^2 Id + 3 x (x)^T), the Jacobian of -x/|x|^3."""
    x = np.asarray(x, float)
    r = float(np.linalg.norm(x))
    return (-r ** 2 * np.eye(x.size) + 3.0 * np.outer(x, x)) / r ** 5


def averaged_jacobian_matrix(x):
    """First-order Jacobian [[0, Id], [S, 0]] of the averaged system at x."""
    x = np.asarray(x, float)
    n = x.size
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = _kepler_hessian(x)
    return M


def averaged_jacobian_det(x):
    """Determinant magnitude 2 |x|^{-3N} of the averaged-map Jacobian.

    Cross-checked against the numerically assembled block matrix; the
    block antidiagonal contributes a dimension-dependent sign, so the
    comparison (and the return value) is in absolute value.
    """
    x = np.asarray(x, float)
    if np.linalg.norm(x) == 0.0:
        raise ValueError("Jacobian undefined at x = 0")
    closed = 2.0 * float(np.linalg.norm(x)) ** (-3 * x.size)
    assembled = abs(float(np.linalg.det(averaged_jacobian_matrix(x))))
    if abs(assembled - closed) > 1e-10 * closed:
        raise AssertionError(
            f"assembled determinant {assembled} disagrees with the closed "
            f"form {closed}")
    return closed


# ---------------------------------------------------------------------------
# shooting for the rescaled problem

def _scaled_field(spec, lam):
    """x'' = lam (-x/|x|^3 + p(t)) as a first-order field, lam = eps^{3/2}."""

    def fun(t, y):
        n = y.size // 2
        x, xd = y[:n], y[n:]
        r = np.linalg.norm(x)
        return np.concatenate([xd, lam * (-x / r ** 3 + spec(t))])

    return fun


def solve_scaled_periodic(spec, eps, y0=None, rtol=1e-12, atol=1e-14,
                          max_iter=30, res_tol=1e-10):
    """T-periodic solution of x'' = eps^{3/2}(-x/|x|^3 + p(t)) by shooting.

    Newton on the period map with a finite-difference Jacobian, seeded
    at the averaged equilibrium at rest.  Returns (y0, dense solution).
    """
    T = spec.period
    n = spec.dim
    lam = eps ** 1.5
    fun = _scaled_field(spec, lam)
    if y0 is None:
        x_star = averaged_equilibrium(spec.mean())
        if x_star is None:
            raise ValueError("zero-mean forcing: no averaged equilibrium "
                             "to seed the shooting")
        y0 = np.concatenate([x_star, np.zeros(n)])
    y0 = np.asarray(y0, float).copy()

    def flow_map(y):
        res = solve_ivp(fun, (0.0, T), y, method="DOP853", rtol=rtol,
                        atol=atol, dense_output=True)
        if not res.success:
            raise RuntimeError(f"integration failed: {res.message}")
        return res.y[:, -1], res

    for _ in range(max_iter):
        yT, sol = flow_map(y0)
        defect = yT - y0
        if np.linalg.norm(defect) < res_tol:
            return y0, sol
        J = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            h = 1e-7 * max(1.0, abs(y0[j]))
            yp = y0.copy()
            yp[j] += h
            J[:, j] = (flow_map(yp)[0] - yT) / h
        step = np.linalg.solve(J - np.eye(2 * n), -defect)
        y0 = y0 + step
    raise RuntimeError(f"shooting did not converge (defect "
                       f"{np.linalg.norm(defect):.3e})")


@dataclass
class FamilyEntry:
    eps: float
    y0: np.ndarray              # rescaled initial condition (x, x')
    min_u: float                # min_t |u_eps|
    sup_dev: float              # sup_t |eps^{1/2} u_eps - x*|
    defect: float


def bifurcation_from_infinity(spec, eps_list, n_samples=400):
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
    y_prev = None
    for eps in eps_list:
        try:
            y0, sol = solve_scaled_periodic(spec, eps, y0=y_prev)
        except RuntimeError as exc:
            diags.append({"eps": eps, "error": str(exc)})
            return entries, diags
        ts = np.linspace(0.0, spec.period, n_samples)
        xs = sol.sol(ts)[: spec.dim, :]
        radii = np.linalg.norm(xs, axis=0)
        dev = np.max(np.linalg.norm(xs - x_star[:, None], axis=0))
        yT = sol.y[:, -1]
        entries.append(FamilyEntry(
            eps=float(eps), y0=y0,
            min_u=float(np.min(radii) / np.sqrt(eps)),
            sup_dev=float(dev),
            defect=float(np.linalg.norm(yT - y0))))
        y_prev = y0
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
