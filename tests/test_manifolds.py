import numpy as np
import pytest

from kepreg import flow, manifolds, model

rng = np.random.default_rng(23)

T = 2.0 * np.pi


class TestConstants:
    def test_k1_values(self):
        c = manifolds.constants(manifolds.ManifoldSpec(k=1, T=T, dim=2))
        assert c.tau == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-15)
        assert c.S == pytest.approx(2.0 * np.pi * 2.0 ** (2.0 / 3.0),
                                    abs=1e-12)

    def test_closure_identity(self):
        """k sigma_k worth of s-time advances t by exactly T."""
        for k in range(1, 11):
            spec = manifolds.ManifoldSpec(k=k, T=T, dim=2)
            c = manifolds.constants(spec)
            # mean of |z|^2 over a seed orbit is 1/(2 tau); k sigma_k
            # of it must be T
            assert c.S / (2.0 * c.tau) == pytest.approx(T, rel=1e-12)

    def test_tau_ordering(self):
        taus = [manifolds.constants(
            manifolds.ManifoldSpec(k=k, T=T, dim=2)).tau for k in (1, 2, 3)]
        assert taus[0] < taus[1] < taus[2]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            manifolds.ManifoldSpec(k=0, T=T, dim=2)
        with pytest.raises(ValueError):
            manifolds.ManifoldSpec(k=1, T=-1.0, dim=2)
        with pytest.raises(ValueError):
            manifolds.ManifoldSpec(k=1, T=T, dim=4)


class TestSeeds:
    def test_seed_constraints(self):
        for dim in (2, 3):
            for k in (1, 3):
                spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
                c = manifolds.constants(spec)
                for _ in range(10):
                    X0 = manifolds.seed_state(
                        spec, manifolds.random_seed_params(spec, rng))
                    assert abs(model.reg_energy(X0, 0.0, None)) < 1e-12
                    assert X0[-1] == pytest.approx(c.tau)
                    if dim == 3:
                        assert abs(model.bl_value(X0)) < 1e-12

    def test_circular_seed_constant_radius(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        for s in np.linspace(0.0, c.S, 30):
            z, _, _, _ = model.unpack_state(
                manifolds.closed_form_flow(spec, X0, s))
            assert np.dot(z, z) == pytest.approx(1.0 / (2.0 * c.tau),
                                                 abs=1e-8)

    def test_rectilinear_seed_at_rest(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec,
                                  manifolds.rectilinear_seed_params(spec))
        _, w0, _, _ = model.unpack_state(X0)
        assert np.allclose(w0, 0.0)

    def test_off_manifold_rejected(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        X0[-1] += 0.1
        with pytest.raises(ValueError):
            manifolds.closed_form_flow(spec, X0, 1.0)


class TestClosedForms:
    def _setup(self, dim=2, k=1):
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        return spec, c, X0

    def test_closed_form_solves_field(self):
        """FD derivative of the closed form matches the field."""
        spec, c, X0 = self._setup()
        h = 1e-6
        for s in np.linspace(0.3, c.S - 0.3, 9):
            d = (manifolds.closed_form_flow(spec, X0, s + h)
                 - manifolds.closed_form_flow(spec, X0, s - h)) / (2 * h)
            f = model.reg_field(manifolds.closed_form_flow(spec, X0, s),
                                0.0, None)
            assert np.allclose(d, f, atol=1e-7)

    def test_orbit_closes_with_time_advance(self):
        for dim in (2, 3):
            for k in (1, 2):
                spec, c, X0 = self._setup(dim, k)
                XS = manifolds.closed_form_flow(spec, X0, c.S)
                diff = XS - X0
                assert diff[-2] == pytest.approx(T, abs=1e-10)
                diff[-2] = 0.0
                assert np.linalg.norm(diff) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_array_flow_equals_scalar_calls(self, dim, monkeypatch):
        """A 1-D array of s gives the stacked scalar calls bit for bit,
        (n, D), and checks X0 on the manifold once."""
        spec, c, X0 = self._setup(dim, 2)
        s = np.concatenate([np.linspace(0.0, c.S, 17), [-0.4, 2.5 * c.S]])
        expected = np.array([manifolds.closed_form_flow(spec, X0, x)
                             for x in s])
        real, checks = manifolds._check_on_manifold, []

        def check(*args):
            checks.append(None)
            return real(*args)

        monkeypatch.setattr(manifolds, "_check_on_manifold", check)
        got = manifolds.closed_form_flow(spec, X0, s)
        assert got.shape == (s.size, X0.size)
        assert np.array_equal(got, expected)
        assert len(checks) == 1

    def test_time_matches_quadrature(self):
        from scipy.integrate import quad
        spec, c, X0 = self._setup()

        def r2(s):
            z, _, _, _ = model.unpack_state(
                manifolds.closed_form_flow(spec, X0, s))
            return float(np.dot(z, z))

        for s_end in (1.0, c.S / 3.0, c.S):
            got = manifolds.closed_form_time(spec, X0, s_end) - X0[-2]
            expected, _ = quad(r2, 0.0, s_end, limit=200)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_variation_solves_linearized_field(self):
        spec, c, X0 = self._setup()
        h = 1e-6
        for s in np.linspace(0.2, c.S - 0.2, 7):
            d = (manifolds.closed_form_variation(spec, X0, s + h)
                 - manifolds.closed_form_variation(spec, X0, s - h)) / (2 * h)
            X = manifolds.closed_form_flow(spec, X0, s)
            Y = manifolds.closed_form_variation(spec, X0, s)
            f = model.reg_field_jacobian(X, 0.0)[1] @ Y
            assert np.allclose(d, f, atol=1e-6)

    def test_variation_initial_value(self):
        spec, c, X0 = self._setup()
        Y0 = manifolds.closed_form_variation(spec, X0, 0.0)
        assert np.allclose(Y0, manifolds.variation_start(spec, X0),
                           atol=1e-13)

    def test_variation_endpoints(self):
        """Endpoint values against their standalone expressions."""
        for dim in (2, 3):
            for k in (1, 2, 3):
                spec, c, X0 = self._setup(dim, k)
                z0, w0, _, tau = model.unpack_state(X0)
                om = c.omega
                kpi = spec.k * np.pi
                Y = manifolds.closed_form_variation(spec, X0, c.S)
                zd = z0.size
                assert np.allclose(Y[:zd], z0 - (kpi / (2 * om)) * w0,
                                   atol=1e-10)
                assert np.allclose(Y[zd:2 * zd], (4 * kpi * tau / om) * z0,
                                   atol=1e-10)
                assert Y[-2] == pytest.approx(
                    (kpi / om) * (-2 * float(np.dot(z0, z0)) + 3.0 / tau),
                    abs=1e-10)
                assert Y[-1] == pytest.approx(-2 * tau)


class TestCertificates:
    def test_monodromy_matches_closed_variation(self):
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            c = manifolds.constants(spec)
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            _, M = flow.monodromy(
                lambda X: model.reg_field_jacobian(X, 0.0), X0, c.S)
            got = M @ manifolds.variation_start(spec, X0)
            expected = manifolds.closed_form_variation(spec, X0, c.S)
            scale = max(1.0, np.linalg.norm(expected))
            assert np.linalg.norm(got - expected) < 1e-6 * scale

    def test_certificate_angle(self):
        for dim in (2, 3):
            for k in (1, 2):
                spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
                for _ in range(3):
                    X0 = manifolds.seed_state(
                        spec, manifolds.random_seed_params(spec, rng))
                    rep = manifolds.nondegeneracy_certificate(spec, X0)
                    assert rep["principal_angle"] > manifolds.ANGLE_MIN
                    assert rep["det_monodromy"] == pytest.approx(1.0,
                                                                 abs=1e-6)

    def test_certificate_is_json_serializable(self):
        import json
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        rep = manifolds.nondegeneracy_certificate(spec, X0)
        json.dumps(rep)

    def test_degeneracy_index_identity(self):
        """Every state with tau = tau_k and K_0 = 0 lies on a closed
        orbit of period S_k, and those states fill a set of dimension
        D - 2: so dim E = D - 2 and rank(Id - Gamma) = 1 on M_k."""
        for dim in (2, 3):
            for k in (1, 2, 3):
                spec, X0 = _seed_stack(dim, k, n=3)
                _, Ms = flow.monodromy(
                    lambda X: model.reg_field_jacobian(X, 0.0), X0,
                    manifolds.constants(spec).S)
                fields = model.reg_field(X0, 0.0)
                grads = model.reg_energy_gradient(X0, 0.0)
                dim_e, rank = manifolds.degeneracy_index(Ms, fields, grads)
                assert dim_e.tolist() == [X0.shape[1] - 2] * len(X0)
                assert rank.tolist() == [1] * len(X0)
                # one orbit at a time gives the same
                for M, F, g in zip(Ms, fields, grads):
                    got = manifolds.degeneracy_index(M, F, g)
                    assert got == (M.shape[0] - 2, 1), (dim, k)


def _seed_stack(dim, k, n=6):
    spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
    local = np.random.default_rng(100 * dim + k)
    return spec, np.array([manifolds.seed_state(
        spec, manifolds.random_seed_params(spec, local)) for _ in range(n)])


def _mixed_stack(dim, n=9):
    """n seeds cycling through k = 1, 2, 3, with one spec per row."""
    local = np.random.default_rng(300 + dim)
    specs = [manifolds.ManifoldSpec(k=1 + i % 3, T=T, dim=dim)
             for i in range(n)]
    return specs, np.array([manifolds.seed_state(
        s, manifolds.random_seed_params(s, local)) for s in specs])


# The integrated fundamental matrix of the eps = 0 field agrees with
# the closed form to 2.6e-11 on 30 seeds per dimension and k over sigma_k,
# S_k and 0.37 sigma_k + 0.1, where max |D Phi| <= 15 (its M(sigma_k)^k
# over S_k to 1.9e-11): the integrator's error, which 1e-10 bounds.
JACOBIAN_VS_INTEGRATION_TOL = 1e-10


class TestClosedFormJacobian:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("where", ["sigma", "S", "between"])
    def test_matches_variational_integration(self, dim, k, where):
        """Every column of D Phi_s against the integrated fundamental
        matrix at eps = 0, for a stack and for its first row alone; s
        off a multiple of sigma_k exercises the tau column's s terms."""
        spec, X0 = _seed_stack(dim, k, n=4)
        c = manifolds.constants(spec)
        s = {"sigma": c.sigma, "S": c.S, "between": 0.37 * c.sigma + 0.1}[
            where]
        fj = lambda X: model.reg_field_jacobian(X, 0.0)
        for X in (X0, X0[0]):
            _, M = flow.integrate_with_variational(fj, X, s, dense=False)
            J = manifolds.closed_form_jacobian(X, s)
            assert J.shape == M.shape
            assert np.max(np.abs(J - M)) < JACOBIAN_VS_INTEGRATION_TOL

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_closed_form_variation(self, dim, k):
        """D Phi_s Y* is the closed-form variation, to rounding."""
        spec, X0 = _seed_stack(dim, k, n=3)
        c = manifolds.constants(spec)
        for s in (0.0, 0.37 * c.sigma + 0.1, c.sigma, c.S):
            J = manifolds.closed_form_jacobian(X0, s)
            for X, Jr in zip(X0, J):
                Y = Jr @ manifolds.variation_start(spec, X)
                assert np.max(np.abs(
                    Y - manifolds.closed_form_variation(spec, X, s))) < 1e-13

    def test_identity_at_zero(self):
        spec, X0 = _seed_stack(3, 2, n=3)
        J = manifolds.closed_form_jacobian(X0, 0.0)
        assert np.array_equal(J, np.broadcast_to(np.eye(10), J.shape))

    def test_s_broadcasts_against_the_stack(self):
        """One s per row, or many s for one state, equal the single
        calls bit for bit."""
        spec, X0 = _seed_stack(2, 1, n=3)
        s = np.array([0.5, 2.0, 7.5])
        got = manifolds.closed_form_jacobian(X0, s)
        assert got.shape == (3, 6, 6)
        for X, x, J in zip(X0, s, got):
            assert np.array_equal(J, manifolds.closed_form_jacobian(X, x))
        many = manifolds.closed_form_jacobian(X0[0], s)
        assert many.shape == (3, 6, 6)
        for x, J in zip(s, many):
            assert np.array_equal(J, manifolds.closed_form_jacobian(X0[0], x))

    @pytest.mark.parametrize("tau", [0.0, -0.5, np.nan])
    def test_rejects_nonpositive_tau(self, tau):
        spec, X0 = _seed_stack(2, 1, n=3)
        X0[1, -1] = tau
        with pytest.raises(ValueError, match="tau > 0"):
            manifolds.closed_form_jacobian(X0, 1.0)


class TestSigmaPeriodPower:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_matches_full_period(self, dim, k):
        """At eps = 0 the Jacobian along an orbit depends on z and tau
        alone and z is sigma_k-periodic, so M(S_k) = M(sigma_k)^k."""
        spec, X0 = _seed_stack(dim, k, n=3)
        c = manifolds.constants(spec)
        fj = lambda X: model.reg_field_jacobian(X, 0.0)
        _, full = flow.monodromy(fj, X0, c.S)
        _, part = flow.monodromy(fj, X0, c.sigma)
        power = np.linalg.matrix_power(part, k)
        scale = np.max(np.abs(full), axis=(1, 2))
        assert np.all(np.max(np.abs(power - full), axis=(1, 2))
                      < 1e-10 * scale)


class TestStackedCertificates:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stack_matches_single_states(self, dim, k):
        spec, X0 = _seed_stack(dim, k)
        stacked = manifolds.nondegeneracy_certificate(spec, X0)
        assert len(stacked) == len(X0)
        for X, rep in zip(X0, stacked):
            one = manifolds.nondegeneracy_certificate(spec, X)
            assert rep["X0"] == one["X0"]
            assert rep["dim_E"] == one["dim_E"]
            assert rep["rank_Id_minus_Gamma"] == one["rank_Id_minus_Gamma"]
            assert abs(rep["principal_angle"]
                       - one["principal_angle"]) < 1e-10
            assert abs(rep["det_monodromy"] - one["det_monodromy"]) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stacked_rows_match_closed_form(self, dim, k):
        """(Id - P) Y* of every row against the closed-form variation.

        P is the closed-form Jacobian, so the two agree to rounding:
        1.4e-14 at most on the 1,800 certificates of [run] seeds 1-10,
        2D and 3D, k = 1, 2, 3."""
        spec, X0 = _seed_stack(dim, k)
        S = manifolds.constants(spec).S
        for X, rep in zip(X0, manifolds.nondegeneracy_certificate(spec, X0)):
            expected = (manifolds.variation_start(spec, X)
                        - manifolds.closed_form_variation(spec, X, S))
            assert np.max(np.abs(np.array(rep["Id_minus_P_Ystar"])
                                 - expected)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mixed_k_rows_match_single_k_calls(self, dim):
        """Rows of k = 1, 2, 3 interleaved in one stack certify as each
        k's own stack does."""
        specs, X0 = _mixed_stack(dim)
        mixed = manifolds.nondegeneracy_certificate(specs, X0)
        assert [r["k"] for r in mixed] == [s.k for s in specs]
        for k in (1, 2, 3):
            rows = [i for i, s in enumerate(specs) if s.k == k]
            single = manifolds.nondegeneracy_certificate(specs[rows[0]],
                                                         X0[rows])
            for i, one in zip(rows, single):
                rep = mixed[i]
                assert rep["X0"] == one["X0"]
                assert rep["forbidden_span"] == one["forbidden_span"]
                assert rep["dim_E"] == one["dim_E"]
                assert (rep["rank_Id_minus_Gamma"]
                        == one["rank_Id_minus_Gamma"])
                assert abs(rep["principal_angle"]
                           - one["principal_angle"]) < 1e-10
                assert abs(rep["det_monodromy"]
                           - one["det_monodromy"]) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mixed_k_rows_match_closed_form(self, dim):
        """(Id - P) Y* of every row of a mixed-k stack against the
        closed-form variation over its own S_k, to rounding as in
        test_stacked_rows_match_closed_form."""
        specs, X0 = _mixed_stack(dim)
        reps = manifolds.nondegeneracy_certificate(specs, X0)
        for spec, X, rep in zip(specs, X0, reps):
            S = manifolds.constants(spec).S
            expected = (manifolds.variation_start(spec, X)
                        - manifolds.closed_form_variation(spec, X, S))
            assert np.max(np.abs(np.array(rep["Id_minus_P_Ystar"])
                                 - expected)) < 1e-12

    def test_rejects_mismatched_specs(self):
        specs, X0 = _mixed_stack(2)
        with pytest.raises(ValueError, match="manifold specs for"):
            manifolds.nondegeneracy_certificate(specs[:-1], X0)
        specs[0] = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        with pytest.raises(ValueError, match="one dimension"):
            manifolds.nondegeneracy_certificate(specs, X0)

    def test_stack_rejects_an_off_manifold_row(self):
        spec, X0 = _seed_stack(2, 1, n=3)
        X0[1, -1] += 1e-6
        with pytest.raises(ValueError, match="off the manifold"):
            manifolds.nondegeneracy_certificate(spec, X0)
