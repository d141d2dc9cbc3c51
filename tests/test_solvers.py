"""The in-package numerical solvers against scipy's, which the tests
alone import.  The DOP853 stepper equals scipy's bit for bit, step for
step, errors included, save the field at the end of its last step,
which it leaves to dense().  The bracketed root finder of ``flow`` finds
``scipy.optimize.brentq``'s roots within each bracket's tolerance."""

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

from kepreg import _solvers, flow, manifolds, model

T = 2.0 * np.pi


def forced(dim):
    cos = [[0.3, 0.0]] if dim == 2 else [[0.3, 0.0, 0.0]]
    sin = [[0.0, 0.3]] if dim == 2 else [[0.0, 0.3, 0.0]]
    return model.Perturbation(T, np.zeros(dim), cos, sin)


def seeds(dim, n, seed=21):
    spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
    local = np.random.default_rng(seed)
    X0 = np.array([manifolds.seed_state(
        spec, manifolds.random_seed_params(spec, local)) for _ in range(n)])
    return X0, manifolds.constants(spec).S


def variational(dim, X0):
    """The right-hand side integrate_with_variational assembles, with
    its initial value and state mask."""
    D = X0.shape[-1]
    rows = X0.shape[:-1] + (D + 1, D)
    pert = forced(dim)

    def fun(Y):
        Y = Y.reshape(rows)
        F, J = model.reg_field_jacobian(Y[..., 0, :], 1e-3, pert)
        out = np.empty(rows)
        out[..., 0, :] = F
        np.matmul(J, Y[..., 1:, :], out=out[..., 1:, :])
        return out

    Y0 = np.empty(rows)
    Y0[..., 0, :] = X0
    Y0[..., 1:, :] = np.eye(D)
    mask = np.zeros(rows, bool)
    mask[..., 0, :] = True
    return fun, Y0.reshape(X0.shape[:-1] + (-1,)), mask.ravel()


class _MaskedDOP853(DOP853):
    """scipy's DOP853 with its error norm read on the masked components,
    as kepreg's variational step control did through scipy."""

    def __init__(self, *args, mask, **kwargs):
        self._mask = mask
        super().__init__(*args, **kwargs)

    def _estimate_error_norm(self, K, h, scale):
        return super()._estimate_error_norm(K[:, self._mask], h,
                                            scale[self._mask])


def scipy_solver(fun, Y0, t_bound, first_step=None, mask=None, rtol=1e-12,
                 atol=1e-14):
    shape = Y0.shape
    kwargs = dict(rtol=rtol, atol=atol, first_step=first_step)
    rhs = lambda t, y: fun(y.reshape(shape)).ravel()
    if mask is None:
        return DOP853(rhs, 0.0, Y0.ravel(), t_bound, **kwargs)
    return _MaskedDOP853(rhs, 0.0, Y0.ravel(), t_bound, mask=mask, **kwargs)


def step_both(fun, Y0, t_bound, first_step=None, mask=None, **kwargs):
    """Step both integrators to the end, comparing t, y, nfev and the
    dense coefficients of every step; returns the step count."""
    ref = scipy_solver(fun, Y0, t_bound, first_step, mask, **kwargs)
    rtol, atol = kwargs.get("rtol", 1e-12), kwargs.get("atol", 1e-14)
    ours = _solvers.DOP853(fun, Y0, t_bound, rtol, atol, first_step, mask)
    assert ours.nfev == ref.nfev
    assert ours.h_abs == ref.h_abs
    n = 0
    while ref.status == "running":
        assert not ours.finished
        ref.step()
        assert ours.step()
        n += 1
        assert ours.t == ref.t and np.array_equal(ours.y, ref.y), n
        # the last step leaves the field at its end to dense()
        assert ours.nfev == ref.nfev - (ref.status == "finished"), n
        assert np.array_equal(ours.dense(), ref.dense_output().F), n
        assert ours.nfev == ref.nfev, n
    assert ref.status == "finished" and ours.finished
    return n


class TestStepper:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_matches_scipy_step_by_step(self, dim, stack):
        """Cold and first_step starts of the perturbed Kepler field."""
        X0, S = seeds(dim, 3)
        X0 = X0 if stack else X0[0]
        pert = forced(dim)
        fun = lambda X: model.reg_field(X, 1e-3, pert)
        t_bound = 0.5 * S
        n_cold = step_both(fun, X0, t_bound)
        assert n_cold > 10
        step_both(fun, X0, t_bound, first_step=0.05)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_masked_error_norm_matches_scipy(self, dim, stack):
        """A variational system stepped on its state columns alone."""
        X0, S = seeds(dim, 2, seed=22)
        fun, Y0, mask = variational(dim, X0 if stack else X0[0])
        step_both(fun, Y0, 0.25 * S, mask=mask)
        step_both(fun, Y0, 0.25 * S, first_step=0.02, mask=mask)

    def test_loose_tolerances(self):
        X0, S = seeds(2, 1)
        fun = lambda X: model.reg_field(X, 0.0)
        step_both(fun, X0[0], S, rtol=1e-6, atol=1e-8)

    def test_trajectory_keeps_each_steps_coefficients(self):
        """flow.integrate stacks every step's coefficients (7, n) along a
        last axis of ``sol``, (7,) + X0.shape + (n_steps,), with F_0 the
        step's increment."""
        X0, S = seeds(2, 2)
        fun = lambda X: model.reg_field(X, 1e-3, forced(2))
        traj = flow.integrate(fun, X0, 0.5 * S)
        assert traj.sol.shape == (7,) + X0.shape + (traj.n_steps,)
        assert np.array_equal(traj.sol[0], np.moveaxis(
            np.diff(traj.states, axis=0), 0, -1))
        ref = scipy_solver(fun, X0, 0.5 * S)
        for i in range(traj.n_steps):
            ref.step()
            assert np.array_equal(traj.sol[..., i].reshape(7, -1),
                                  ref.dense_output().F)
        assert ref.status == "finished" and ref.nfev == traj.nfev

    def test_error_norm_matches_scipy(self):
        """error_norm on masked stages and scale equals scipy's
        _estimate_error_norm given the same masked arrays."""
        local = np.random.default_rng(3)
        solver = DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0)
        for n in (1, 6, 66, 660):
            K = local.normal(size=(13, n))
            scale = local.uniform(1e-14, 1.0, n)
            mask = local.random(n) < 0.5
            mask[0] = True
            for h in (1e-3, -0.7):
                args = (K[:, mask], h, scale[mask])
                assert (_solvers.error_norm(*args)
                        == solver._estimate_error_norm(*args))
        zero = np.zeros((13, 4))
        assert _solvers.error_norm(zero, 0.1, np.ones(4)) == 0.0

    def test_too_small_step_raises_flow_error(self):
        """y' = y^2 from y = 1 blows up at t = 1: both integrators stop
        at the same last state, which the FlowError carries, after the
        same evaluations, as no step reaches t_bound."""
        fun = lambda y: y * y
        y0 = np.array([1.0])
        ref = scipy_solver(fun, y0, 2.0)
        while ref.status == "running":
            message = ref.step()
        assert ref.status == "failed"
        assert message == _solvers.TOO_SMALL_STEP
        ours = _solvers.DOP853(fun, y0, 2.0, 1e-12, 1e-14)
        while ours.step():
            pass
        assert ours.t == ref.t and np.array_equal(ours.y, ref.y)
        assert ours.nfev == ref.nfev
        with pytest.raises(flow.FlowError, match="spacing") as info:
            flow.integrate(fun, y0, 2.0)
        assert info.value.last_s == ref.t
        assert np.array_equal(info.value.last_state, ref.y)

    def test_last_step_leaves_its_end_point_field_to_dense(self):
        """y' = -y in one step: the field turns NaN from its 13th call,
        scipy's end-point evaluation, which rejects scipy's step; this
        stepper's last step makes 12 calls and is accepted, and only
        dense() reads the NaN."""
        def fun(y):
            calls.append(None)
            return -y if len(calls) < 13 else np.full_like(y, np.nan)

        calls = []
        ref = scipy_solver(fun, np.ones(2), 0.1, first_step=0.1)
        ref.step()
        assert ref.status == "failed" and ref.t == 0.0
        calls = []
        ours = _solvers.DOP853(fun, np.ones(2), 0.1, 1e-12, 1e-14, 0.1)
        assert ours.step() and ours.finished and ours.nfev == 12
        assert np.allclose(ours.y, np.exp(-0.1), rtol=1e-12, atol=0.0)
        assert np.isnan(ours.dense()).any() and ours.nfev == 16

    def test_argument_errors(self):
        fun = lambda y: -y
        y0 = np.ones(2)
        with pytest.raises(ValueError, match="first_step. must be positive"):
            _solvers.DOP853(fun, y0, 1.0, 1e-6, 1e-8, first_step=0.0)
        with pytest.raises(ValueError, match="exceeds bounds"):
            _solvers.DOP853(fun, y0, 1.0, 1e-6, 1e-8, first_step=2.0)
        with pytest.raises(ValueError, match="must be finite"):
            _solvers.DOP853(fun, np.array([np.nan]), 1.0, 1e-6, 1e-8)
        with pytest.warns(UserWarning, match="rtol"):
            _solvers.DOP853(fun, y0, 1.0, 1e-16, 1e-8)
        empty = _solvers.DOP853(fun, y0, 0.0, 1e-6, 1e-8)
        assert empty.step() and empty.finished
        assert empty.nfev == 1


def collision_brackets():
    """Every bracket detect_events refines on TestEvents' rectilinear
    orbits, from their start and from one further along (another step
    sequence), with the function it refines."""
    out = []
    for dim, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.rectilinear_seed_params(spec))
        for s0 in (0.0, 0.3 * np.pi / c.omega):
            traj = flow.integrate(lambda X: model.reg_field(X, 0.0),
                                  manifolds.closed_form_flow(X0, s0),
                                  c.S)
            grid = np.append(np.linspace(traj.s[:-1], traj.s[1:],
                                         flow.EVENT_GRID, endpoint=False,
                                         axis=1).ravel(), traj.s[-1])
            v = flow._radial_momentum(traj.eval(grid))
            g = lambda s, traj=traj: flow._radial_momentum(traj.eval(s))
            for i in np.flatnonzero((v[:-1] * v[1:] < 0.0) & (v[:-1] < 0.0)):
                out.append((g, grid[i], grid[i + 1]))
    return out


def smooth_brackets():
    """Random smooth functions on brackets with a sign change."""
    local = np.random.default_rng(17)
    out = []
    while len(out) < 200:
        a0, a1, a2, w, p = local.normal(size=5)
        f = (lambda x, a0=a0, a1=a1, a2=a2, w=w, p=p:
             a0 + a1 * x + a2 * x ** 3 + np.sin(3 * w * x + p))
        lo, hi = np.sort(local.uniform(-3.0, 3.0, 2))
        if f(lo) * f(hi) < 0.0:
            out.append((f, lo, hi))
    return out


def vectorized(fs):
    """f(x, i) of _bracketed_roots from one scalar function per bracket,
    counting its calls."""
    def f(x, i):
        f.calls += 1
        return np.array([fs[j](xj) for j, xj in zip(i, x)])
    f.calls = 0
    return f


def roots(brackets, xtol, rtol=flow.ROOT_RTOL):
    """The roots of every bracket and the calls of f they took; the end
    values are passed in, as every caller holds them."""
    f = vectorized([g for g, _, _ in brackets])
    lo, hi = np.reshape([(a, b) for _, a, b in brackets], (-1, 2)).T
    f_lo = np.array([g(a) for g, a, _ in brackets], float)
    f_hi = np.array([g(b) for g, _, b in brackets], float)
    return flow._bracketed_roots(f, lo, hi, f_lo, f_hi, xtol, rtol), f.calls


def sign_changes(f, a, b, n=201):
    v = np.array([f(x) for x in np.linspace(a, b, n)])
    return int(np.sum(np.sign(v[:-1]) != np.sign(v[1:])))


class TestBracketedRoots:
    TOLERANCES = [(flow.EVENT_XTOL, flow.ROOT_RTOL), (1e-15, 8.9e-16),
                  (2e-12, flow.ROOT_RTOL), (1e-4, 1e-6)]

    @pytest.mark.parametrize("source", [collision_brackets, smooth_brackets])
    def test_matches_brentq(self, source):
        """Every root is a sign change of f within its tolerance; on a
        bracket with one sign change it is brentq's root within the
        tolerance.  (With several, either may find any of them.)"""
        brackets = source()
        assert len(brackets) >= 12
        single = [sign_changes(f, a, b) == 1 for f, a, b in brackets]
        assert sum(single) >= 0.75 * len(brackets)
        for xtol, rtol in self.TOLERANCES:
            got, _ = roots(brackets, xtol, rtol)
            for (f, a, b), x, one in zip(brackets, got, single):
                tol = xtol + rtol * abs(x)
                assert min(a, b) <= x <= max(a, b)
                lo, hi = max(min(a, b), x - tol), min(max(a, b), x + tol)
                assert f(x) == 0.0 or np.sign(f(lo)) != np.sign(f(hi))
                if one:
                    want = brentq(f, a, b, xtol=xtol, rtol=rtol)
                    assert abs(x - want) <= tol

    def test_brackets_are_independent(self):
        """A bracket's root does not depend on the others refined with
        it."""
        brackets = collision_brackets() + smooth_brackets()[:50]
        together, _ = roots(brackets, 1e-13)
        alone = [roots([b], 1e-13)[0][0] for b in brackets]
        assert np.array_equal(together, alone)

    def test_collisions_take_few_iterations(self):
        """A few steps for every collision bracket at once, one call of
        f each."""
        _, calls = roots(collision_brackets(), flow.EVENT_XTOL)
        assert calls <= 5

    def test_exact_zeros(self):
        """An end or a step where f is exactly 0, of either sign, is
        returned exactly; the ends passed in are tried first."""
        brackets = [
            (lambda x: x - 0.5, 0.5, 1.0),
            (lambda x: x - 0.5, 0.0, 0.5),
            (lambda x: x - 0.5, 0.0, 1.0),     # the first secant step
            (lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0),
            (lambda x: -1.0 if x == 0.0 else -0.0, 0.0, 1.0),
            (lambda x: 0.0, 0.25, 1.0),
        ]
        got, calls = roots(brackets, 2e-12)
        assert got.tolist() == [0.5, 0.5, 0.5, 0.0, 1.0, 0.25]
        assert calls == 1

    def test_hard_brackets(self):
        """Underflowing products, a reversed bracket, a steep root and
        flat ones (where brentq runs out of its 100 iterations) against
        the exact roots."""
        brackets = [
            (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
            (lambda x: np.exp(x) - 5.0, 10.0, 0.0),
            (lambda x: np.tanh(1e3 * (x - 0.3)), 0.0, 1.0),
            (lambda x: np.float64(x) ** 3, -1.0, 2.0),
            (lambda x: (x - 0.7) ** 9, 0.0, 1.0),
        ]
        got, _ = roots(brackets, 2e-12)
        exact = [0.3, np.log(5.0), 0.3, 0.0, 0.7]
        assert np.all(np.abs(got - exact)
                      <= 2e-12 + flow.ROOT_RTOL * np.abs(got))

    def test_bisection_bounds_the_steps(self):
        """The safeguard halves a bracket at least once in three steps,
        where regula falsi alone creeps along a flat side."""
        f = lambda x: np.tanh(1e3 * (x - 0.3))
        for xtol in (1e-4, 1e-8, 1e-12):
            _, calls = roots([(f, 0.0, 1.0)], xtol)
            assert calls <= 3 * np.ceil(np.log2(1.0 / xtol))

    def test_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="different signs"):
            roots([(lambda x: x - 0.5, 0.0, 1.0),
                   (lambda x: x * x + 1.0, 0.0, 1.0)], 1e-12)

    @pytest.mark.parametrize("f", [
        lambda x: np.nan if x > 0.5 else x - 0.7,          # at an end
        lambda x: np.nan if 0.2 < x < 0.8 else x - 0.5,    # at a step
    ])
    def test_nan_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            roots([(f, 0.0, 1.0)], 1e-12)

    def test_unreachable_tolerance_raises_flow_error(self):
        """A jump is bracketed down to adjacent floats, which a tolerance
        below their spacing never accepts; the error carries the best
        points."""
        with pytest.raises(flow.FlowError, match="still open") as err:
            roots([(lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
                   (lambda x: x - 0.25, 0.0, 1.0)], 1e-300, 0.0)
        assert err.value.last_s[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert err.value.last_s[1] == 0.25

    def test_no_brackets(self):
        assert roots([], 1e-12)[0].shape == (0,)
