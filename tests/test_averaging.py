import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kepreg
from kepreg import averaging, flow, model, shooting

T = 2.0 * np.pi


def acceptance_forcing():
    """p(t) = (1 + cos t, 0)."""
    return model.Perturbation(period=T, const=(1.0, 0.0), cos=[(1.0, 0.0)])


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
        force, S = averaging._kepler_force(x)
        assert np.allclose(force, -x / np.linalg.norm(x) ** 3, rtol=1e-15)
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
    return model.Perturbation(period=T, const=(0.3, -0.5, 0.2),
                              cos=[(0.2, 0.1, 0.0)], sin=[(0.0, 0.1, 0.3)])


def forward_difference_jacobian(spec, lam, y0, t0):
    """The period map's Jacobian in (x, x') by forward differences of
    solve_ivp runs from t0, with steps 1e-7 max(1, |y_j|)."""
    n = spec.dim

    def fun(t, y):
        x, xd = y[:n], y[n:]
        return np.concatenate([xd, lam * (-x / np.linalg.norm(x) ** 3
                                          + spec.jet(t)[0])])

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
        of the Fourier series, and match the jet's p and p'."""
        calls = []
        jet = spec.jet
        monkeypatch.setattr(spec, "jet", lambda t: calls.append(t) or jet(t))
        n, lam, t = spec.dim, 0.1 ** 1.5, 0.7
        Y = np.concatenate([np.full(n, 0.9), np.full(n, 0.1), [t]])
        F, J = averaging._scaled_system(spec, lam)(Y)
        assert len(calls) == 1
        x = Y[:n]
        p = F[n:2 * n] / lam + x / np.linalg.norm(x) ** 3
        assert np.allclose(p, jet(t)[0], rtol=1e-14, atol=1e-15)
        assert np.array_equal(J[n:2 * n, -1], lam * jet(t)[1])

    @pytest.mark.parametrize("spec", [acceptance_forcing(),
                                      spatial_forcing()])
    def test_stack_matches_rows(self, spec):
        """A stack with one lam per row gives each row's single-state
        field and Jacobian."""
        n, lam = spec.dim, np.array([1e-3, 3e-5, 1e-6])
        rng = np.random.default_rng(4)
        Y = np.column_stack([1.0 + 0.1 * rng.normal(size=(3, n)),
                             0.01 * rng.normal(size=(3, n)),
                             np.full(3, 0.7)])
        F, J = averaging._scaled_system(spec, lam)(Y)
        assert F.shape == (3, 2 * n + 1) and J.shape == (3, 2 * n + 1,
                                                         2 * n + 1)
        for i in range(3):
            Fi, Ji = averaging._scaled_system(spec, lam[i])(Y[i])
            assert np.allclose(F[i], Fi, rtol=1e-15, atol=0.0)
            assert np.allclose(J[i], Ji, rtol=1e-15, atol=0.0)

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
            averaging.averaged_equilibrium(spec.const)
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
        """A row still open after MAX_ITER steps gets a ShootingError
        with its best iterate; a row that converged in them keeps its
        orbit, and the family keeps eps_list order."""
        monkeypatch.setattr(averaging, "MAX_ITER", 1)
        spec = acceptance_forcing()
        eps = np.array([1e-4, 1e-2])
        seeds = averaging._first_order_seed(spec, np.array([1.0, 0.0]),
                                            eps ** 1.5)[1]
        converged, failed = averaging.solve_scaled_periodic(spec, eps, seeds)
        y0, traj, row = converged
        assert np.array_equal(y0, seeds[0]) and row == 0
        assert traj.states.shape[1] == 2
        assert isinstance(failed, shooting.ShootingError)
        assert "did not converge" in str(failed)
        # the one iterate tried is the seed
        assert np.array_equal(failed.best_unknowns, seeds[1])
        assert failed.best_residual > averaging.RESIDUAL_TOL
        entries, diags = averaging.bifurcation_from_infinity(
            spec, [1e-3, 1e-2, 1e-4])
        assert [e.eps for e in entries] == [1e-3, 1e-4]
        assert [d["eps"] for d in diags] == [1e-2]
        assert "did not converge" in diags[0]["error"]

    @staticmethod
    def family_failing_integration(monkeypatch, failing):
        """The acceptance family with its stacked integration number
        ``failing`` raising FlowError; returns (entries, diags, rows per
        integration)."""
        real = flow.integrate_with_variational
        rows = []

        def fail_one(field_jacobian, X0, *args, **kwargs):
            rows.append(len(X0))
            if len(rows) == failing:
                raise flow.FlowError("integration failed: synthetic")
            return real(field_jacobian, X0, *args, **kwargs)

        monkeypatch.setattr(flow, "integrate_with_variational", fail_one)
        entries, diags = averaging.bifurcation_from_infinity(
            acceptance_forcing(), [1e-2, 1e-3, 1e-4])
        return entries, diags, rows

    def test_flow_error_leaves_partial_family(self, monkeypatch):
        """A FlowError in the second stacked integration fails the one
        row still open in it; the rows that converged in the first keep
        their entries."""
        entries, diags, rows = self.family_failing_integration(monkeypatch, 2)
        assert rows == [3, 1]
        assert [e.eps for e in entries] == [1e-3, 1e-4]
        assert diags == [{"eps": 1e-2,
                          "error": "integration failed: synthetic"}]

    def test_flow_error_in_first_integration_fails_every_eps(self,
                                                             monkeypatch):
        entries, diags, rows = self.family_failing_integration(monkeypatch, 1)
        assert rows == [3] and entries == []
        assert diags == [{"eps": e, "error": "integration failed: synthetic"}
                         for e in (1e-2, 1e-3, 1e-4)]


def spatial_two_harmonics():
    return model.Perturbation(
        period=T, const=(0.3, -0.5, 0.2),
        cos=[(0.2, 0.1, 0.0), (0.0, -0.1, 0.15)],
        sin=[(0.0, 0.1, 0.3), (0.1, 0.0, -0.05)])


def first_order_xi(spec, t):
    """xi(t) and xi'(t), rows (len(t), N), of the zero-mean T-periodic
    solution of xi'' = p - p_bar, summed harmonic by harmonic from the
    forcing's coefficients."""
    t = np.asarray(t, float)[:, None]
    xi, dxi = np.zeros((t.size, spec.dim)), np.zeros((t.size, spec.dim))
    for h, C in enumerate(spec.cos, 1):
        f = 2.0 * np.pi * h / spec.period
        xi -= np.cos(f * t) * C / f ** 2
        dxi += np.sin(f * t) * C / f
    for h, S in enumerate(spec.sin, 1):
        f = 2.0 * np.pi * h / spec.period
        xi -= np.sin(f * t) * S / f ** 2
        dxi -= np.cos(f * t) * S / f
    return xi, dxi


ORACLE_SPECS = {"planar": acceptance_forcing(),
                "spatial": spatial_two_harmonics()}


class TestFirstOrderAveraging:
    """The family against first-order averaging: x = x* + lam xi(t) +
    O(lam^2), lam = eps^{3/2} (Sanders, Verhulst and Murdock,
    Averaging Methods in Nonlinear Dynamical Systems)."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_xi_solves_the_averaged_equation(self, name):
        """The oracle itself: xi'' = p - p_bar by central differences of
        xi', and xi has zero mean."""
        spec = ORACLE_SPECS[name]
        ts = np.linspace(0.0, T, 2001)
        h = 1e-5
        ddxi = (first_order_xi(spec, ts + h)[1]
                - first_order_xi(spec, ts - h)[1]) / (2.0 * h)
        p = spec.jet(ts)[:, 0]
        assert np.max(np.abs(ddxi - (p - spec.const))) < 1e-8
        xi = first_order_xi(spec, ts)[0]
        assert np.max(np.abs(np.mean(xi[:-1], axis=0))) < 1e-14

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_family_within_second_order(self, name):
        """y0 lies within 10 lam^2 of the seed (x* + lam xi(0),
        lam xi'(0)), and sup_dev within 10 lam^2 of lam max|xi|, the
        maximum taken on the N_SAMPLES times sup_dev reads."""
        spec = ORACLE_SPECS[name]
        eps_list = [1e-2, 1e-3, 1e-4]
        entries, diags = averaging.bifurcation_from_infinity(spec, eps_list)
        assert diags == []
        assert [e.eps for e in entries] == eps_list
        x_star = averaging.averaged_equilibrium(spec.const)
        xi0, dxi0 = first_order_xi(spec, [0.0])
        xi = first_order_xi(spec, np.linspace(0.0, T, averaging.N_SAMPLES))[0]
        xi_max = np.max(np.linalg.norm(xi, axis=1))
        for e in entries:
            lam = e.eps ** 1.5
            seed = np.concatenate([x_star + lam * xi0[0], lam * dxi0[0]])
            assert np.linalg.norm(e.y0 - seed) <= 10.0 * lam ** 2
            assert abs(e.sup_dev - lam * xi_max) <= 10.0 * lam ** 2
            assert e.defect < averaging.RESIDUAL_TOL

    def test_constant_forcing_converges_on_its_seed(self, monkeypatch):
        """Without harmonics the seed, at rest at x*, is periodic: every
        eps converges in one stacked integration, on the seed itself."""
        real = flow.integrate_with_variational
        rows = []

        def counted(field_jacobian, X0, *args, **kwargs):
            rows.append(len(X0))
            return real(field_jacobian, X0, *args, **kwargs)

        monkeypatch.setattr(flow, "integrate_with_variational", counted)
        spec = model.Perturbation(period=T, const=(0.3, -0.5, 0.2))
        entries, diags = averaging.bifurcation_from_infinity(
            spec, [1e-2, 1e-3, 1e-4])
        assert diags == [] and rows == [3]
        seed = np.concatenate([averaging.averaged_equilibrium(spec.const),
                               np.zeros(3)])
        for e in entries:
            assert np.array_equal(e.y0, seed)
            assert e.defect < averaging.RESIDUAL_TOL


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
        fs = model.Perturbation(period=T, const=(0.0, 0.0), cos=[(1.0, 0.0)])
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
