import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kepreg
from kepreg import averaging, flow, shooting

T = 2.0 * np.pi


def acceptance_forcing():
    """p(t) = (1 + cos t, 0)."""
    return averaging.ForcingSpec(period=T, const=(1.0, 0.0),
                                 cos=[(1.0, 0.0)])


class TestForcingSpec:
    def test_evaluation(self):
        fs = acceptance_forcing()
        assert np.allclose(fs(0.0), [2.0, 0.0])
        assert np.allclose(fs(np.pi), [0.0, 0.0])
        assert fs.dim == 2

    def test_mean_is_exact(self):
        fs = acceptance_forcing()
        assert np.allclose(fs.mean(), [1.0, 0.0])
        # quadrature cross-check
        ts = np.linspace(0.0, T, 20001)
        vals = np.array([fs(t) for t in ts])
        assert np.allclose(np.trapezoid(vals, ts, axis=0) / T, [1.0, 0.0],
                           atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            averaging.ForcingSpec(period=T, const=(1.0, 0.0),
                                  cos=[(1.0, 0.0, 0.0)])


class TestAveragedEquation:
    def test_equilibrium(self):
        x = averaging.averaged_equilibrium([1.0, 0.0])
        assert np.allclose(x, [1.0, 0.0])
        x = averaging.averaged_equilibrium([0.0, 4.0])
        assert np.allclose(x, [0.0, 0.5])
        # defining relation x/|x|^3 = p_bar
        assert np.allclose(x / np.linalg.norm(x) ** 3, [0.0, 4.0])

    def test_zero_mean(self):
        assert averaging.averaged_equilibrium([0.0, 0.0]) is None

    def test_jacobian_structure(self):
        x = np.array([1.0, 0.0])
        M = averaging.averaged_jacobian_matrix(x)
        assert M.shape == (4, 4)
        assert np.allclose(M[:2, 2:], np.eye(2))
        assert np.allclose(M[:2, :2], 0.0)
        # Kepler Hessian at (1, 0): diag(2, -1)
        assert np.allclose(M[2:, :2], np.diag([2.0, -1.0]))

    def test_jacobian_hessian_fd(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3)
        S = averaging._kepler_hessian(x)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (-xp / np.linalg.norm(xp) ** 3
                   + xm / np.linalg.norm(xm) ** 3) / (2 * h)
            assert np.allclose(S[:, i], col, atol=1e-5)

    def test_determinant_closed_form(self):
        for x in ([1.0, 0.0], [0.3, -0.4], [1.0, 2.0, -0.5]):
            x = np.array(x)
            d = averaging.averaged_jacobian_det(x)
            assert d == pytest.approx(
                2.0 * np.linalg.norm(x) ** (-3 * x.size), rel=1e-10)

    def test_determinant_at_origin(self):
        with pytest.raises(ValueError):
            averaging.averaged_jacobian_det([0.0, 0.0])

    @pytest.mark.parametrize("tol,check", [
        ("EQUILIBRIUM_TOL", averaging.averaged_equilibrium),
        ("DET_TOL", averaging.averaged_jacobian_det)])
    def test_failed_self_check_is_typed(self, monkeypatch, tol, check):
        """A failing self-check (a negative tolerance) raises
        ``AveragingError``, a ``KepregError`` like ``FlowError`` and
        ``ShootingError``."""
        monkeypatch.setattr(averaging, tol, -1.0)
        with pytest.raises(averaging.AveragingError):
            check([1.0, 0.0])
        for error in (averaging.AveragingError, flow.FlowError,
                      shooting.ShootingError):
            assert issubclass(error, kepreg.KepregError)


def spatial_forcing():
    return averaging.ForcingSpec(period=T, const=(0.3, -0.5, 0.2),
                                 cos=[(0.2, 0.1, 0.0)], sin=[(0.0, 0.1, 0.3)])


def forward_difference_jacobian(spec, lam, y0, t0):
    """The period map's Jacobian in (x, x') by forward differences of
    solve_ivp runs from t0, with steps 1e-7 max(1, |y_j|)."""
    n = spec.dim

    def fun(t, y):
        x, xd = y[:n], y[n:]
        return np.concatenate([xd, lam * (-x / np.linalg.norm(x) ** 3
                                          + spec(t))])

    def flow_map(y):
        return solve_ivp(fun, (t0, t0 + T), y, method="DOP853", rtol=1e-12,
                         atol=1e-14).y[:, -1]

    yT = flow_map(y0)
    J = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        h = 1e-7 * max(1.0, abs(y0[j]))
        yp = y0.copy()
        yp[j] += h
        J[:, j] = (flow_map(yp) - yT) / h
    return J


class TestScaledSystem:
    @pytest.mark.parametrize("spec", [acceptance_forcing(),
                                      spatial_forcing()])
    def test_one_fourier_evaluation_per_call(self, spec, monkeypatch):
        """p and p' of one field-Jacobian call come from one evaluation
        of the Fourier basis, and match p(t) and the jet's p'."""
        calls = []
        basis = spec._basis
        monkeypatch.setattr(spec, "_basis",
                            lambda t: calls.append(t) or basis(t))
        n, lam, t = spec.dim, 0.1 ** 1.5, 0.7
        Y = np.concatenate([np.full(n, 0.9), np.full(n, 0.1), [t]])
        F, J = averaging._scaled_system(spec, lam)(Y)
        assert len(calls) == 1
        x = Y[:n]
        p = F[n:2 * n] / lam + x / np.linalg.norm(x) ** 3
        assert np.allclose(p, spec(t), rtol=1e-14, atol=1e-15)
        assert np.array_equal(J[n:2 * n, -1], lam * spec.jet(t)[1])

    @pytest.mark.parametrize("spec", [acceptance_forcing(),
                                      spatial_forcing()])
    def test_monodromy_matches_period_map(self, spec):
        """Every column of the variational monodromy on (x, x', t),
        the t column included, against central differences of the
        period map, and its (x, x') block against the forward-difference
        loop the shooting used before it had the exact Jacobian."""
        n, lam = spec.dim, 0.1 ** 1.5
        field_jacobian = averaging._scaled_system(spec, lam)
        rng = np.random.default_rng(1)
        Y0 = np.concatenate([
            averaging.averaged_equilibrium(spec.mean())
            + 0.1 * rng.normal(size=n), 0.05 * rng.normal(size=n), [0.7]])
        _, M = flow.integrate_with_variational(field_jacobian, Y0, T)

        def period_map(Y):
            return flow.integrate(lambda Y: field_jacobian(Y)[0], Y,
                                  T).states[-1]

        h = 1e-6
        central = np.column_stack([
            (period_map(Y0 + h * e) - period_map(Y0 - h * e)) / (2.0 * h)
            for e in np.eye(2 * n + 1)])
        assert np.max(np.abs(M - central)) < 1e-8
        assert np.max(np.abs(M[n:2 * n, 2 * n])) > 1e-3
        forward = forward_difference_jacobian(spec, lam, Y0[:2 * n], Y0[-1])
        assert np.max(np.abs(M[:2 * n, :2 * n] - forward)) < 1e-5


class TestTypedFailures:
    def test_no_convergence_is_shooting_error(self, monkeypatch):
        monkeypatch.setattr(averaging, "MAX_ITER", 1)
        spec = acceptance_forcing()
        with pytest.raises(shooting.ShootingError,
                           match="did not converge") as info:
            averaging.solve_scaled_periodic(spec, 1e-2, [1.0, 0.0, 0.0, 0.0])
        # the one iterate tried is the seed: x* at rest
        assert np.array_equal(info.value.best_unknowns, [1.0, 0.0, 0.0, 0.0])
        assert info.value.best_residual > averaging.RESIDUAL_TOL
        entries, diags = averaging.bifurcation_from_infinity(spec, [1e-2])
        assert entries == []
        assert "did not converge" in diags[0]["error"]

    def test_flow_error_leaves_partial_family(self, monkeypatch):
        real = flow.integrate_with_variational
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "integrate_with_variational", counted)
        averaging.bifurcation_from_infinity(acceptance_forcing(), [1e-2])
        first = len(calls)

        def fail_after_first(*args, **kwargs):
            if len(calls) >= first:
                raise flow.FlowError("integration failed: synthetic")
            return counted(*args, **kwargs)

        calls.clear()
        monkeypatch.setattr(flow, "integrate_with_variational",
                            fail_after_first)
        entries, diags = averaging.bifurcation_from_infinity(
            acceptance_forcing(), [1e-2, 1e-3])
        assert [e.eps for e in entries] == [1e-2]
        assert diags == [{"eps": 1e-3,
                          "error": "integration failed: synthetic"}]


@pytest.fixture(scope="module")
def family():
    entries, diags = averaging.bifurcation_from_infinity(
        acceptance_forcing(), [1e-2, 1e-3, 1e-4])
    assert diags == []
    return entries


class TestBifurcation:
    def test_family_converged(self, family):
        assert len(family) == 3
        for e in family:
            assert e.defect < 1e-10

    def test_amplitude_scaling(self, family):
        slope = averaging.fit_scaling_slope(family)
        assert -0.55 < slope < -0.45

    def test_deviation_decreases(self, family):
        devs = [e.sup_dev for e in family]
        assert devs[0] > devs[1] > devs[2]

    def test_rescaled_orbit_near_equilibrium(self, family):
        x_star = averaging.averaged_equilibrium([1.0, 0.0])
        for e in family:
            x0 = e.y0[:2]
            assert np.linalg.norm(x0 - x_star) < 10.0 * np.sqrt(e.eps)

    def test_zero_mean_rejected(self):
        fs = averaging.ForcingSpec(period=T, const=(0.0, 0.0),
                                   cos=[(1.0, 0.0)])
        with pytest.raises(ValueError):
            averaging.bifurcation_from_infinity(fs, [1e-3])

    def test_csv(self, family, tmp_path):
        path = tmp_path / "family.csv"
        averaging.family_to_csv(family, path, header_lines=["run = x"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# run = x"
        assert lines[1].startswith("# fitted_slope")
        assert lines[2] == "eps,min_u,sup_dev,defect"
        assert len(lines) == 3 + len(family)

    def test_slope_needs_two_entries(self, family):
        with pytest.raises(ValueError):
            averaging.fit_scaling_slope(family[:1])
