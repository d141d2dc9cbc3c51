import numpy as np
import pytest

from kepreg import averaging

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
