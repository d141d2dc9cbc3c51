import numpy as np
import pytest

from kepreg import algebra, model

rng = np.random.default_rng(7)

T = 2.0 * np.pi


def random_state(dim, rng=rng):
    zd = 2 if dim == 2 else 4
    z = rng.normal(size=zd)
    z /= max(np.linalg.norm(z), 0.3)
    w = rng.normal(size=zd)
    return model.pack_state(z, w, rng.uniform(0.0, T), rng.uniform(0.3, 1.5))


def grad_z_P(z, t, eps, pert):
    ev, A = model._perturbation_at(np.asarray(z, float), t, eps, pert)
    return model._grad_z_P(z, A, ev)


def sample_pert(dim):
    cos = np.array([[0.3, 0.1, -0.2][:dim], [0.05, -0.07, 0.02][:dim]])
    sin = np.array([[-0.1, 0.25, 0.15][:dim]])
    return model.forced_kepler(T, const=[0.1] * dim, cos=cos, sin=sin, dim=dim)


class TestPerturbations:
    def test_zero(self):
        p = model.zero_perturbation(T, 2)
        assert p.value(1.0, [1.0, 2.0], 0.1) == 0.0
        assert np.allclose(p.grad_u(1.0, [1.0, 2.0], 0.1), 0.0)
        assert p.dt(1.0, [1.0, 2.0], 0.1) == 0.0

    def test_time_reduction(self):
        p = sample_pert(2)
        u = np.array([0.4, -0.2])
        assert p.value(0.3, u, 0.0) == pytest.approx(
            p.value(0.3 + 7 * T, u, 0.0), rel=1e-12)

    def test_forced_kepler_is_linear_in_u(self):
        p = sample_pert(2)
        t = 1.234
        u = np.array([0.5, -0.3])
        assert p.value(t, 2.0 * u, 0.0) == pytest.approx(
            2.0 * p.value(t, u, 0.0), rel=1e-12)
        # gradient is the forcing vector itself, independent of u
        assert np.allclose(p.grad_u(t, u, 0.0), p.grad_u(t, 5.0 * u, 0.0))

    def test_self_check_passes(self):
        for dim in (2, 3):
            p = sample_pert(dim)
            pts = [(rng.uniform(0, T), rng.normal(size=dim)) for _ in range(5)]
            assert p.self_check(pts)

    def test_self_check_catches_wrong_gradient(self):
        p = model.Perturbation(
            T,
            lambda t, u, eps: float(np.dot(u, u)),
            lambda t, u, eps: 3.0 * u,        # wrong: should be 2 u
            lambda t, u, eps: 0.0)
        with pytest.raises(model.PerturbationError):
            p.self_check([(0.5, np.array([1.0, 2.0]))])

    def test_self_check_catches_wrong_dt(self):
        p = model.Perturbation(
            T,
            lambda t, u, eps: np.sin(t) * u[0],
            lambda t, u, eps: np.array([np.sin(t), 0.0]),
            lambda t, u, eps: -np.cos(t) * u[0])   # wrong sign
        with pytest.raises(model.PerturbationError):
            p.self_check([(0.5, np.array([1.0, 2.0]))])

    def test_fatou_value(self):
        # at u = (1, 0), t = gamma = 0: U = k' + h'
        p = model.fatou(k_prime=1.3, h_prime=0.4, n_prime=2.0)
        assert p.value(0.0, [1.0, 0.0], 0.0) == pytest.approx(1.7, rel=1e-12)
        assert p.period == pytest.approx(np.pi / 2.0)

    def test_fatou_derivatives(self):
        p = model.fatou(k_prime=0.7, h_prime=0.2, n_prime=1.5, gamma=0.3)
        pts = []
        while len(pts) < 8:
            u = rng.normal(size=2)
            if np.linalg.norm(u) > 0.5:
                pts.append((rng.uniform(0, p.period), u))
        assert p.self_check(pts)

    def test_fatou_rejected_in_regularized_run(self):
        p = model.fatou(1.0, 0.0, 1.0)
        X = random_state(2)
        with pytest.raises(ValueError):
            model.reg_energy(X, 1e-3, p)
        with pytest.raises(ValueError):
            model.reg_field(X, 1e-3, p)


class TestStateLayout:
    def test_pack_unpack_roundtrip(self):
        for dim in (2, 3):
            X = random_state(dim)
            z, w, t, tau = model.unpack_state(X)
            assert np.allclose(model.pack_state(z, w, t, tau), X)
            assert model.space_dim(X) == dim
            assert model.state_dim(dim) == len(X)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            model.space_dim(np.zeros(7))
        with pytest.raises(ValueError):
            model.state_dim(4)

    def test_position_jacobian_fd(self):
        for dim in (2, 3):
            zd = 2 * dim - 2
            z = rng.normal(size=zd)
            A = model.position_jacobian(z)
            for i in range(zd):
                h = 1e-7
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                col = (model.position(zp) - model.position(zm)) / (2 * h)
                assert np.allclose(A[:, i], col, atol=1e-6)

    def test_position_hessians_fd(self):
        for dim in (2, 3):
            zd = 2 * dim - 2
            z = rng.normal(size=zd)
            B = model._position_hessians(zd)
            h = 1e-5
            for i in range(zd):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                dA = (model.position_jacobian(zp)
                      - model.position_jacobian(zm)) / (2 * h)
                for k in range(dim):
                    assert np.allclose(B[k][:, i], dA[k], atol=1e-8)


class TestRegularizedField:
    def test_hamiltonian_structure(self):
        """The field is J grad K in (z, w) with the t/tau extension."""
        for dim in (2, 3):
            pert = sample_pert(dim)
            for eps in (0.0, 1e-2):
                X = random_state(dim)
                f = model.reg_field(X, eps, pert)
                g = model.reg_energy_gradient(X, eps, pert)
                zd = 2 * dim - 2
                # z' = 4 dK/dw / ... : here z' = w/4 = g_w, w' = -g_z
                assert np.allclose(f[:zd], g[zd:2 * zd], atol=1e-13)
                assert np.allclose(f[zd:2 * zd], -g[:zd], atol=1e-13)
                assert f[2 * zd] == pytest.approx(g[2 * zd + 1])
                assert f[2 * zd + 1] == pytest.approx(-g[2 * zd])

    def test_energy_gradient_fd(self):
        for dim in (2, 3):
            pert = sample_pert(dim)
            X = random_state(dim)
            g = model.reg_energy_gradient(X, 1e-2, pert)
            for i in range(len(X)):
                h = 1e-6
                Xp, Xm = X.copy(), X.copy()
                Xp[i] += h
                Xm[i] -= h
                fd = (model.reg_energy(Xp, 1e-2, pert)
                      - model.reg_energy(Xm, 1e-2, pert)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=2e-8)

    def test_grad_z_P_fd(self):
        for dim in (2, 3):
            pert = sample_pert(dim)
            zd = 2 * dim - 2
            z = rng.normal(size=zd)
            t = 0.77
            g = grad_z_P(z, t, 1e-3, pert)

            def P(zz):
                return float(np.dot(zz, zz)) * pert.value(
                    t, model.position(zz), 1e-3)

            for i in range(zd):
                h = 1e-6
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                assert g[i] == pytest.approx((P(zp) - P(zm)) / (2 * h),
                                             abs=2e-8)

    def test_grad_z_P_complex_form(self):
        """2D cross-check: grad P = 2 U z + 2 |z|^2 conj(z) grad_u U."""
        pert = sample_pert(2)
        z = rng.normal(size=2)
        t = 1.9
        g = grad_z_P(z, t, 0.0, pert)
        zc = complex(z[0], z[1])
        u = model.position(z)
        gu = pert.grad_u(t, u, 0.0)
        expected = (2.0 * pert.value(t, u, 0.0) * zc
                    + 2.0 * abs(zc) ** 2
                    * np.conj(zc) * complex(gu[0], gu[1]))
        assert g[0] == pytest.approx(expected.real, abs=1e-12)
        assert g[1] == pytest.approx(expected.imag, abs=1e-12)

    def test_P_vanishes_at_origin(self):
        pert = sample_pert(2)
        X = model.pack_state([0.0, 0.0], [1.0, 2.0], 0.5, 0.7)
        # K at z = 0 sees no perturbation: tau |z|^2 and eps P both vanish
        assert model.reg_energy(X, 1e-2, pert) == pytest.approx(
            np.dot([1.0, 2.0], [1.0, 2.0]) / 8.0 - 1.0, rel=1e-13)

    def test_field_jacobian_fd(self):
        for dim in (2, 3):
            pert = sample_pert(dim)
            for eps in (0.0, 1e-2):
                X = random_state(dim)
                J = model.reg_field_jacobian(X, eps, pert)
                for i in range(len(X)):
                    h = 1e-6
                    Xp, Xm = X.copy(), X.copy()
                    Xp[i] += h
                    Xm[i] -= h
                    col = (model.reg_field(Xp, eps, pert)
                           - model.reg_field(Xm, eps, pert)) / (2 * h)
                    assert np.allclose(J[:, i], col, atol=5e-7), \
                        f"dim={dim} eps={eps} column {i}"

    def test_closed_form_second_derivatives_match_fd(self):
        """forced_kepler's closed-form jet against the generic evaluate,
        which differences grad_u and dt."""
        for dim in (2, 3):
            pert = sample_pert(dim)
            t = rng.uniform(-T, 2 * T, size=5)
            u = rng.normal(size=(5, dim))
            exact = pert.evaluate(t, u, 1e-2, second=True)
            fd = model.Perturbation.evaluate(pert, t, u, 1e-2, second=True)
            assert exact.hess is None      # U is linear in u
            assert np.allclose(fd.hess, 0.0, atol=5e-7)
            for name in ("value", "grad", "dt", "grad_dt", "dt2"):
                assert np.allclose(getattr(exact, name), getattr(fd, name),
                                   atol=5e-7), f"dim={dim} {name}"

    def test_stacked_kernels_match_rows(self):
        """A stack of states gives the row-by-row results, for the
        closed-form and the finite-difference perturbation paths, and
        the same for BL and the position map."""
        for dim in (2, 3):
            linear = sample_pert(dim)
            generic = model.Perturbation(
                T, linear._value, linear._grad_u, linear._dt)
            Xs = np.array([random_state(dim) for _ in range(5)])
            for pert in (linear, generic):
                for eps in (0.0, 1e-2):
                    for fn in (model.reg_energy, model.reg_field,
                               model.reg_energy_gradient,
                               model.reg_field_jacobian):
                        rows = np.array([fn(X, eps, pert) for X in Xs])
                        assert np.allclose(fn(Xs, eps, pert), rows,
                                           rtol=1e-14, atol=1e-15), \
                            f"dim={dim} eps={eps} {fn.__name__}"
            if dim == 3:
                assert np.array_equal(model.bl_value(Xs),
                                      [model.bl_value(X) for X in Xs])
            else:
                with pytest.raises(ValueError):
                    model.bl_value(Xs)
            Z = Xs[:, : 2 * dim - 2]
            single = [algebra.lc_position(complex(*z)) for z in Z] \
                if dim == 2 else [algebra.ks_map(z) for z in Z]
            if dim == 2:
                single = [[c.real, c.imag] for c in single]
            assert np.allclose(model.position(Z), single, rtol=1e-14,
                               atol=1e-15)

    def test_variational_field_unperturbed_matches_generic(self):
        for dim in (2, 3):
            X = random_state(dim)
            Y = rng.normal(size=len(X))
            a = model.variational_field_unperturbed(X, Y)
            b = model.variational_field(X, Y, 0.0, None)
            assert np.allclose(a, b, atol=1e-10)


class TestSpatialIntegral:
    def test_bl_matches_definition(self):
        from kepreg.algebra import quat_conj, quat_mul, i_mul
        X = random_state(3)
        z, w, _, _ = model.unpack_state(X)
        # Re(conj(z) i w) is the real part of the quaternion product
        assert model.bl_value(X) == pytest.approx(
            quat_mul(quat_conj(z), i_mul(w))[0], rel=1e-12)

    def test_bl_gradient_fd(self):
        X = random_state(3)
        g = model.bl_gradient(X)
        for i in range(10):
            h = 1e-7
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (model.bl_value(Xp) - model.bl_value(Xm)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-7)

    def test_bl_rejects_planar(self):
        with pytest.raises(ValueError):
            model.bl_value(random_state(2))

    def test_group_rotation_properties(self):
        R = model.group_rotation_matrix(0.0)
        assert np.allclose(R, np.eye(10))
        th = 0.83
        R = model.group_rotation_matrix(th)
        assert np.allclose(R @ model.group_rotation_matrix(-th), np.eye(10))
        # derivative at theta = 0 generates the group direction
        h = 1e-7
        X = random_state(3)
        dR = (model.group_rotation_matrix(h)
              - model.group_rotation_matrix(-h)) / (2 * h)
        assert np.allclose(dR @ X, model.group_direction(X), atol=1e-7)

    def test_rotation_preserves_energy_and_position_fiber(self):
        pert = sample_pert(3)
        X = random_state(3)
        R = model.group_rotation_matrix(1.21)
        Y = R @ X
        z, _, _, _ = model.unpack_state(X)
        zy, _, _, _ = model.unpack_state(Y)
        assert np.allclose(model.position(z), model.position(zy), atol=1e-12)
        assert model.reg_energy(Y, 1e-2, pert) == pytest.approx(
            model.reg_energy(X, 1e-2, pert), rel=1e-12)
        assert model.bl_value(Y) == pytest.approx(model.bl_value(X),
                                                  rel=1e-12)


class TestPhysicalSystem:
    def test_field_shape_and_singularity(self):
        pert = sample_pert(2)
        y = np.array([1.0, 0.0, 0.0, 0.5])
        f = model.physical_field(0.3, y, 1e-2, pert)
        assert f.shape == (4,)
        assert np.allclose(f[:2], y[2:])
        with pytest.raises(ValueError):
            model.physical_field(0.0, np.zeros(4), 0.0, pert)

    def test_energy(self):
        assert model.physical_energy([1.0, 0.0], [0.0, 1.0]) == \
            pytest.approx(-0.5)
