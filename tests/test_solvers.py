"""The in-package DOP853 stepper and Brent root finder against scipy's,
which the tests alone import: equal bit for bit, step for step and
iteration for iteration, errors included."""

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

from kepreg import _solvers, flow, manifolds, model

T = 2.0 * np.pi


def forced(dim):
    cos = [[0.3, 0.0]] if dim == 2 else [[0.3, 0.0, 0.0]]
    sin = [[0.0, 0.3]] if dim == 2 else [[0.0, 0.3, 0.0]]
    return model.forced_kepler(T, cos=cos, sin=sin, dim=dim)


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
                 atol=1e-14, max_step=np.inf):
    shape = Y0.shape
    kwargs = dict(rtol=rtol, atol=atol, max_step=max_step,
                  first_step=first_step)
    rhs = lambda t, y: fun(y.reshape(shape)).ravel()
    if mask is None:
        return DOP853(rhs, 0.0, Y0.ravel(), t_bound, **kwargs)
    return _MaskedDOP853(rhs, 0.0, Y0.ravel(), t_bound, mask=mask, **kwargs)


def step_both(fun, Y0, t_bound, first_step=None, mask=None, **kwargs):
    """Step both integrators to the end, comparing t, y, nfev and the
    dense coefficients of every step; returns the step count."""
    ref = scipy_solver(fun, Y0, t_bound, first_step, mask, **kwargs)
    rtol, atol = kwargs.get("rtol", 1e-12), kwargs.get("atol", 1e-14)
    ours = _solvers.DOP853(fun, Y0, t_bound, rtol, atol,
                           kwargs.get("max_step", np.inf), first_step, mask)
    assert ours.nfev == ref.nfev
    assert ours.h_abs == ref.h_abs
    n = 0
    while ref.status == "running":
        assert not ours.finished
        ref.step()
        assert ours.step()
        n += 1
        assert ours.t == ref.t and np.array_equal(ours.y, ref.y), n
        assert ours.nfev == ref.nfev, n
        assert np.array_equal(ours.dense(), ref.dense_output().F), n
        assert ours.nfev == ref.nfev, n
    assert ref.status == "finished" and ours.finished
    return n


class TestStepper:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("direction", [1.0, -1.0],
                             ids=["forward", "backward"])
    def test_matches_scipy_step_by_step(self, dim, stack, direction):
        """Cold and first_step starts of the perturbed Kepler field."""
        X0, S = seeds(dim, 3)
        X0 = X0 if stack else X0[0]
        pert = forced(dim)
        fun = lambda X: model.reg_field(X, 1e-3, pert)
        t_bound = direction * 0.5 * S
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
        step_both(fun, Y0, -0.25 * S, first_step=0.02, mask=mask)

    def test_max_step_and_loose_tolerances(self):
        X0, S = seeds(2, 1)
        fun = lambda X: model.reg_field(X, 0.0)
        step_both(fun, X0[0], S, rtol=1e-6, atol=1e-8, max_step=0.1)

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
        at the same last state, which the FlowError carries."""
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

    def test_argument_errors(self):
        fun = lambda y: -y
        y0 = np.ones(2)
        with pytest.raises(ValueError, match="first_step. must be positive"):
            _solvers.DOP853(fun, y0, 1.0, 1e-6, 1e-8, first_step=0.0)
        with pytest.raises(ValueError, match="exceeds bounds"):
            _solvers.DOP853(fun, y0, -1.0, 1e-6, 1e-8, first_step=2.0)
        with pytest.raises(ValueError, match="must be finite"):
            _solvers.DOP853(fun, np.array([np.nan]), 1.0, 1e-6, 1e-8)
        with pytest.warns(UserWarning, match="rtol"):
            _solvers.DOP853(fun, y0, 1.0, 1e-16, 1e-8)
        empty = _solvers.DOP853(fun, y0, 0.0, 1e-6, 1e-8)
        assert empty.step() and empty.finished
        assert empty.nfev == 1


def collision_brackets():
    """Every bracket detect_events hands to brentq on TestEvents'
    rectilinear orbits, with the function it refines."""
    out = []
    for dim, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        X0 = manifolds.seed_state(spec,
                                  manifolds.rectilinear_seed_params(spec))
        for cfg in (None, flow.IntegratorConfig(max_step=0.05)):
            traj = flow.integrate(lambda X: model.reg_field(X, 0.0), X0,
                                  manifolds.constants(spec).S, cfg)
            grid = np.append(np.linspace(traj.s[:-1], traj.s[1:],
                                         flow.EVENT_GRID, endpoint=False,
                                         axis=1).ravel(), traj.s[-1])
            v = flow._radial_momentum(traj.eval(grid).T)
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


class TestBrent:
    TOLERANCES = [(flow.EVENT_XTOL, _solvers.BRENT_RTOL),
                  (1e-15, 8.9e-16), (2e-12, _solvers.BRENT_RTOL),
                  (1e-4, 1e-6)]

    @pytest.mark.parametrize("source", [collision_brackets, smooth_brackets])
    def test_matches_scipy(self, source):
        brackets = source()
        assert len(brackets) >= 12
        for f, a, b in brackets:
            for xtol, rtol in self.TOLERANCES:
                want, info = brentq(f, a, b, xtol=xtol, rtol=rtol,
                                    full_output=True)
                root, iterations, converged = _solvers.brent(
                    f, a, b, xtol, rtol, _solvers.BRENT_MAXITER)
                assert converged and info.converged
                assert root == want and iterations == info.iterations
                assert _solvers.brentq(f, a, b, xtol, rtol) == want

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x - 0.5, 0.5, 1.0),
        (lambda x: x - 0.5, 0.0, 0.5),
        (lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0),
        (lambda x: -1.0 if x == 0.0 else -0.0, 0.0, 1.0),
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
        (lambda x: np.exp(x) - 5.0, 0.0, 10.0),
        (lambda x: np.float64(x) ** 3, -1.0, 2.0),
    ])
    def test_edge_cases_match_scipy(self, f, a, b):
        """Roots at an end, signed zeros and underflowing products.  A
        root at an end is returned before the first iteration, where
        scipy leaves its iteration count unset; there the count is 0."""
        for maxiter in (0, 3, 100):
            want, info = brentq(f, a, b, maxiter=maxiter, full_output=True,
                                disp=False)
            root, iterations, converged = _solvers.brent(
                f, a, b, _solvers.BRENT_XTOL, _solvers.BRENT_RTOL, maxiter)
            assert (root, converged) == (want, info.converged)
            if f(a) == 0.0 or f(b) == 0.0:
                assert iterations == 0
            else:
                assert iterations == info.iterations

    @pytest.mark.parametrize("f,a,b,kwargs", [
        (lambda x: x * x + 1.0, 0.0, 1.0, {}),
        (lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}),
        (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}),
        (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-17}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": -1}),
        (lambda x: np.exp(x) - 5.0, 0.0, 10.0, {"maxiter": 3}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": 0}),
    ])
    def test_errors_match_scipy(self, f, a, b, kwargs):
        with pytest.raises((ValueError, RuntimeError)) as want:
            brentq(f, a, b, **kwargs)
        with pytest.raises(want.type) as got:
            _solvers.brentq(f, a, b, **kwargs)
        assert str(got.value) == str(want.value)
