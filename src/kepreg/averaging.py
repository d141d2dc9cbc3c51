"""Bifurcation from infinity for the periodically forced Kepler problem.

For u'' = -u/|u|^3 + eps p(t) with T-periodic forcing p of nonzero mean
p_bar, a family of large T-periodic solutions exists with
u_eps ~ eps^{-1/2} x*, where x* = p_bar / |p_bar|^{3/2} is the unique
equilibrium of the averaged equation.  The rescaled problem
x'' = lam (-x/|x|^3 + p(t)), lam = eps^{3/2}, is solved by shooting in
physical coordinates (the orbits stay far from the origin) and mapped
back.  First-order averaging (Sanders, Verhulst and Murdock, Averaging
Methods in Nonlinear Dynamical Systems) gives x = x* + lam xi(t) +
O(lam^2), xi the zero-mean periodic solution of xi'' = p - p_bar, and
every eps starts its Newton iteration there.  Every eps of a family is
solved in one stack: each Newton step is one variational integration of
the rows still open.  The forcing is a ``model.Perturbation``, the object
the regularized field takes: its ``jet`` gives p and p', its ``const``
p_bar and its ``freq`` the harmonic frequencies of the seed.
"""

from dataclasses import dataclass

import numpy as np

from . import _output, flow, model, shooting
from .errors import KepregError

__all__ = [
    "AveragingError",
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

    Returns None when the mean is zero (no bifurcation from infinity).
    x* is p_bar/|p_bar| times |p_bar|^{-1/2}, with norms by hypot, which
    squares nothing: finite and nonzero for every finite nonzero p_bar.
    The defining relation (x*/|x*|)/|x*|^2 = p_bar is verified to
    ``EQUILIBRIUM_TOL`` relative to max(1, |p_bar|); a failure, a NaN
    included, raises ``AveragingError``.
    """
    p_bar = np.asarray(p_bar, float)
    norm = float(np.hypot.reduce(p_bar))
    if norm == 0.0:
        return None
    x = p_bar / norm * norm ** -0.5
    nx = float(np.hypot.reduce(x))
    err = np.hypot.reduce(x / nx / (nx * nx) - p_bar)
    if not err <= EQUILIBRIUM_TOL * max(1.0, norm):
        raise AveragingError(
            "averaged equilibrium fails its defining relation")
    return x


def _kepler_force(x, lam=1.0):
    """lam (-x/|x|^3) and its Jacobian lam S(x), S = |x|^{-5} (3 x x^T -
    |x|^2 Id), at x (N,) or at every row of a stack (..., N); lam is one
    value, or one per row as (..., 1)."""
    x = np.asarray(x, float)
    n = x.shape[-1]
    r2 = np.vecdot(x, x)[..., None]
    c = lam / (r2 * np.sqrt(r2))            # lam / |x|^3
    S = x[..., :, None] * ((3.0 / r2) * c * x)[..., None, :]
    S.reshape(S.shape[:-2] + (n * n,))[..., :: n + 1] -= c
    return -c * x, S


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
    M[n:, :n] = _kepler_force(x)[1]
    return M


def averaged_jacobian_det(x):
    """Determinant magnitude 2 |x|^{-3N} of the averaged-map Jacobian.

    At x* it is nonzero: the paper's non-degenerate averaged equilibrium,
    from which the large periodic solutions bifurcate (acceptance
    criterion 10).  Cross-checked against the numerically assembled
    block matrix to ``DET_TOL`` relative (``AveragingError`` otherwise);
    the block antidiagonal contributes a dimension-dependent sign, so
    the comparison (and the return value) is in absolute value.  A
    determinant that overflows or underflows a float also raises
    ``AveragingError``: 0 or inf would misstate it.
    """
    x = np.asarray(x, float)
    norm = float(np.hypot.reduce(x))
    if norm == 0.0:
        raise ValueError("Jacobian undefined at x = 0")
    with np.errstate(over="ignore"):
        closed = float(2.0 * np.power(norm, -3 * x.size))
    if not np.finfo(float).tiny <= closed <= np.finfo(float).max:
        raise AveragingError(
            f"averaged Jacobian determinant 2 |x|^(-{3 * x.size}) at |x| = "
            f"{norm:.3e} is not a normal float")
    assembled = abs(float(np.linalg.det(averaged_jacobian_matrix(x))))
    if not abs(assembled - closed) <= DET_TOL * closed:
        raise AveragingError(
            f"assembled determinant {assembled} disagrees with the closed "
            f"form {closed}")
    return closed


# ---------------------------------------------------------------------------
# shooting for the rescaled problem

# Newton stops at a period-map defect of 1e-10, above what the 1e-12 relative
# integration resolves while |x| <= 100 (above that, at REL_TOL |x|); with
# the exact Jacobian it needs a few steps, not 30.
RESIDUAL_TOL = 1e-10
MAX_ITER = 30
N_SAMPLES = 400             # times per period at which an orbit is read


def _scaled_system(pert, lam):
    """Field and Jacobian [[0, Id, 0], [lam S(x), 0, lam p'(t)], [0, 0, 0]] of
    x'' = lam (-x/|x|^3 + p(t)), lam = eps^{3/2}, on Y = (x, x', t), as
    one callable Y -> (field, Jacobian).  lam is one value or one per row
    (m,) of a stack Y (m, 2N + 1).  J starts from a template of its
    constant entries, built here once."""
    n = pert.dim
    lam = np.asarray(lam, float)[..., None]
    template = np.zeros((2 * n + 1, 2 * n + 1))
    template[:n, n:2 * n] = np.eye(n)

    def field_jacobian(Y):
        jet = pert.jet(Y[..., -1])          # one Fourier evaluation
        force, S = _kepler_force(Y[..., :n], lam)
        F = np.empty(Y.shape)
        F[..., :n] = Y[..., n:2 * n]
        F[..., n:2 * n] = lam * jet[..., 0, :] + force
        F[..., -1] = 1.0
        J = np.empty(Y.shape + template.shape[-1:])
        J[...] = template
        J[..., n:2 * n, :n] = S
        J[..., n:2 * n, -1] = lam * jet[..., 1, :]
        return F, J

    return field_jacobian


def _first_order_seed(pert, x_star, lam):
    """xi and the starts (x* + lam xi(0), lam xi'(0)) of first-order
    averaging, one row per lam (m,).

    x = x* + lam xi(t) + O(lam^2), where xi is the zero-mean periodic
    solution of xi'' = p - p_bar: each harmonic of p over -f_h^2, a
    ``model.Perturbation`` whose ``jet`` at 0 gives xi(0) and xi'(0).  A
    forcing without harmonics starts at rest at x*, which is periodic.
    """
    f2 = pert.freq[:, None] ** 2
    xi = model.Perturbation(pert.period, np.zeros(pert.dim),
                            -pert.cos / f2[: len(pert.cos)],
                            -pert.sin / f2[: len(pert.sin)])
    jet = xi.jet(0.0)
    lam = np.asarray(lam, float)[:, None]
    return xi, np.concatenate([x_star + lam * jet[0], lam * jet[1]], axis=1)


def solve_scaled_periodic(pert, eps, y0):
    """T-periodic solutions of x'' = eps^{3/2}(-x/|x|^3 + p(t)), one per
    row of eps (m,) and of the starts y0 = (x, x') (m, 2N).

    Newton on the period map, every row at once: each step is one
    variational integration of (x, x', t) from t = 0 over the rows still
    open, and a row leaves the stack once its defect |y(T) - y0| is below
    ``RESIDUAL_TOL``, or below ``flow.REL_TOL`` |x0| (x0 the row's
    position) where that is larger: the integration resolves no finer.
    Returns one outcome per row, in row order: for a converged row (y0,
    trajectory, row), the trajectory of its last integration and its row
    there, read with ``trajectory.eval(s, rows=np.full(np.shape(s),
    row))``; for any other row the error that ended it, a
    ``ShootingError`` with its best iterate when it is still open after
    ``MAX_ITER`` steps, or the ``FlowError`` of a failed integration,
    which ends every row open in it.
    """
    lam = np.asarray(eps, float) ** 1.5
    y = np.array(y0, float)
    m, d = y.shape
    outcomes = [None] * m
    best_y, best_r, last_r = y.copy(), np.full(m, np.inf), np.full(m, np.inf)
    open_rows = np.arange(m)
    for _ in range(MAX_ITER):
        if open_rows.size == 0:
            break
        try:
            traj, M = flow.integrate_with_variational(
                _scaled_system(pert, lam[open_rows]),
                np.column_stack([y[open_rows], np.zeros(open_rows.size)]),
                pert.period)
        except flow.FlowError as exc:
            for i in open_rows:
                outcomes[i] = exc
            return outcomes
        defect = traj.states[-1, :, :d] - y[open_rows]
        last_r[open_rows] = np.linalg.norm(defect, axis=1)
        better = open_rows[last_r[open_rows] < best_r[open_rows]]
        best_y[better], best_r[better] = y[better], last_r[better]
        # The integration holds x to REL_TOL |x| alone, so a defect below
        # that is integration noise, and a Newton step solved from it is
        # noise too (0.75-2.2 |x| long at |x| = 1e7): such a row is done.
        floor = flow.REL_TOL * np.linalg.norm(y[open_rows, : d // 2], axis=1)
        done = last_r[open_rows] < np.maximum(RESIDUAL_TOL, floor)
        for row in np.flatnonzero(done):
            outcomes[open_rows[row]] = (y[open_rows[row]], traj, row)
        step = np.linalg.solve(M[~done, :d, :d] - np.eye(d),
                               -defect[~done, :, None])
        open_rows = open_rows[~done]
        y[open_rows] += step[..., 0]
    for i in open_rows:
        outcomes[i] = shooting.ShootingError(
            f"shooting did not converge in {MAX_ITER} Newton steps (defect "
            f"{last_r[i]:.3e})", best_unknowns=best_y[i],
            best_residual=best_r[i])
    return outcomes


@dataclass
class FamilyEntry:
    eps: float
    y0: np.ndarray              # rescaled initial condition (x, x')
    min_u: float                # min_t |u_eps|
    sup_dev: float              # sup_t |eps^{1/2} u_eps - x*|
    defect: float


def bifurcation_from_infinity(pert, eps_list):
    """Family of large T-periodic solutions, every eps solved at once.

    Each eps starts from its first-order averaging seed, and
    ``solve_scaled_periodic`` solves every rescaled problem in one
    stack; an orbit maps back via u_eps = eps^{-1/2} x.  Returns
    (entries, diagnostics): an entry for every eps that converged and a
    diagnostic for every other, each in ``eps_list`` order.

    The integration holds x to ``flow.REL_TOL`` |x*| alone, so an eps
    whose predicted sup_dev lam max_t |xi(t)| is nonzero but not above
    that gets a diagnostic; without harmonics xi = 0 and x = x* exactly.
    """
    x_star = averaged_equilibrium(pert.const)
    if x_star is None:
        raise ValueError("zero-mean forcing has no bifurcation from infinity")
    eps = np.asarray(eps_list, float)
    lam = eps ** 1.5
    ts = np.linspace(0.0, pert.period, N_SAMPLES)
    xi, seeds = _first_order_seed(pert, x_star, lam)
    predicted = lam * np.max(np.linalg.norm(xi.jet(ts)[:, 0], axis=-1))
    floor = flow.REL_TOL * np.linalg.norm(x_star)
    resolved = (predicted == 0.0) | (predicted > floor)
    outcomes = iter(solve_scaled_periodic(
        pert, eps[resolved], seeds[resolved]))
    entries = []
    diags = []
    for e, ok, pred in zip(eps_list, resolved, predicted):
        if not ok:
            diags.append({"eps": e, "error": (
                f"predicted deviation {pred:.3e} from x* is not above the "
                f"integration's resolution REL_TOL |x*| = {floor:.3e}")})
            continue
        outcome = next(outcomes)
        if isinstance(outcome, KepregError):
            diags.append({"eps": e, "error": str(outcome)})
            continue
        y0, traj, row = outcome
        xs = traj.eval(ts, rows=np.full(N_SAMPLES, row))[:, : pert.dim]
        radii = np.linalg.norm(xs, axis=-1)
        dev = np.max(np.linalg.norm(xs - x_star, axis=-1))
        entries.append(FamilyEntry(
            eps=float(e), y0=y0,
            min_u=float(np.min(radii) / np.sqrt(e)),
            sup_dev=float(dev),
            defect=float(np.linalg.norm(traj.states[-1, row, :y0.size]
                                        - y0))))
    return entries, diags


def fit_scaling_slope(entries):
    """Log-log slope of min |u_eps| against eps (expected -1/2)."""
    if len(entries) < 2:
        raise ValueError("need at least two family entries for a slope fit")
    x = np.log([e.eps for e in entries])
    y = np.log([e.min_u for e in entries])
    return float(np.polyfit(x, y, 1)[0])


def family_to_csv(entries, path, header_lines):
    """Summary CSV: eps, min|u_eps|, sup-deviation from x*, defect, under
    header_lines and a ``fitted_slope`` header line
    (``_output.write_csv``)."""
    slope = fit_scaling_slope(entries) if len(entries) >= 2 else float("nan")
    _output.write_csv(
        path, [*header_lines, f"fitted_slope = {slope:.6f}"],
        "eps,min_u,sup_dev,defect",
        (f"{e.eps:.6e},{e.min_u:.16e},{e.sup_dev:.16e},{e.defect:.16e}"
         for e in entries))
