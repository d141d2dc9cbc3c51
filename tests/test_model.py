import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    """grad_z P(t, z, eps) read off the field kernel: at tau = 0, w' is
    eps grad_z P (eps nonzero)."""
    zd = len(z)
    X = model.pack_state(z, np.zeros(zd), t, 0.0)
    return model.reg_field(X, eps, pert)[zd:2 * zd] / eps


def sample_pert(dim):
    cos = np.array([[0.3, 0.1, -0.2][:dim], [0.05, -0.07, 0.02][:dim]])
    sin = np.array([[-0.1, 0.25, 0.15][:dim]])
    return model.Perturbation(T, [0.1] * dim, cos, sin)


def reference_field_jacobian(X, eps, pert):
    """The field and its Jacobian assembled term by term from grad_z P,
    its z-Hessian and its t-derivative, each term computed on its own
    from p, p' and p'' of the forcing series at t modulo the period
    rather than from ``pert.evaluate``: the reference that
    ``model.reg_field`` and ``model.reg_field_jacobian`` must match."""
    X = np.asarray(X, float)
    zd = (X.shape[-1] - 2) // 2
    z, w = X[..., :zd], X[..., zd:2 * zd]
    t, tau = X[..., 2 * zd], X[..., 2 * zd + 1]
    eye = np.eye(zd)
    r2 = np.vecdot(z, z)
    F = np.empty(X.shape)
    F[..., :zd] = w / 4.0
    F[..., zd:2 * zd] = (-2.0 * tau)[..., None] * z
    F[..., 2 * zd] = r2
    F[..., 2 * zd + 1] = 0.0
    J = np.zeros(X.shape + X.shape[-1:])
    J[..., :zd, zd:2 * zd] = eye / 4.0
    J[..., zd:2 * zd, :zd] = (-2.0 * tau)[..., None, None] * eye
    J[..., zd:2 * zd, 2 * zd + 1] = -2.0 * z
    J[..., 2 * zd, :zd] = 2.0 * z
    if eps == 0.0:
        return F, J
    A = model.position_jacobian(z)
    u = model.position(z)
    jet = pert.jet(np.mod(t, pert.period))
    p, dp, ddp = jet[..., 0, :], jet[..., 1, :], jet[..., 2, :]
    U, dU = np.vecdot(p, u), np.vecdot(dp, u)
    Ag = np.vecmat(p, A)
    grad_P = 2.0 * U[..., None] * z + r2[..., None] * Ag
    F[..., zd:2 * zd] += eps * grad_P
    F[..., 2 * zd + 1] = eps * r2 * dU
    B = model._position_hessians(zd)
    curv = np.einsum("...k,kij->...ij", p, B)
    zAg = z[..., :, None] * Ag[..., None, :]
    Hp = (2.0 * (zAg + np.swapaxes(zAg, -1, -2))
          + (2.0 * U)[..., None, None] * eye
          + r2[..., None, None] * curv)
    dgradP_dt = 2.0 * dU[..., None] * z + r2[..., None] * np.vecmat(dp, A)
    J[..., zd:2 * zd, :zd] += eps * Hp
    J[..., zd:2 * zd, 2 * zd] = eps * dgradP_dt
    J[..., 2 * zd + 1, :zd] = eps * dgradP_dt
    J[..., 2 * zd + 1, 2 * zd] = eps * r2 * np.vecdot(ddp, u)
    return F, J


class TestPerturbations:
    def test_zero(self):
        p = model.zero_perturbation(T, 2)
        U, grad, dt, grad_dt, dt2 = p.evaluate(1.0, [1.0, 2.0])
        assert U == 0.0 and dt == 0.0 and dt2 == 0.0
        assert np.array_equal(grad, [0.0, 0.0])
        assert np.array_equal(grad_dt, [0.0, 0.0])

    def test_nonpositive_period_rejected(self):
        for period in (0.0, -T):
            with pytest.raises(ValueError):
                model.Perturbation(period, [1.0, 0.0])

    def test_time_reduction(self):
        p = sample_pert(2)
        u = np.array([0.4, -0.2])
        assert p.evaluate(0.3, u)[0] == pytest.approx(
            p.evaluate(0.3 + 7 * T, u)[0], rel=1e-12)

    def test_forcing_is_linear_in_u(self):
        p = sample_pert(2)
        t = 1.234
        u = np.array([0.5, -0.3])
        assert p.evaluate(t, 2.0 * u)[0] == pytest.approx(
            2.0 * p.evaluate(t, u)[0], rel=1e-12)
        # gradient is the forcing vector itself, independent of u
        assert np.allclose(p.evaluate(t, u)[1], p.evaluate(t, 5.0 * u)[1])

    def test_evaluate_stack_matches_rows(self):
        """t of shape S and u of shape S + (N,) give values of shape S and
        vectors of shape S + (N,), each row equal to evaluate at that row,
        with times on both sides of [0, T)."""
        for dim in (2, 3):
            p = sample_pert(dim)
            t = rng.uniform(-T, 3 * T, size=6)
            u = rng.normal(size=(6, dim))
            stacked = p.evaluate(t, u)
            for out, shape in zip(stacked, [(6,), (6, dim), (6,), (6, dim),
                                             (6,)]):
                assert np.shape(out) == shape
            for i in range(6):
                for out, row in zip(stacked, p.evaluate(t[i], u[i])):
                    assert np.allclose(out[i], row, rtol=1e-13, atol=1e-15)


class TestFourierSeries:
    """The forcing series p(t) that a Perturbation holds, read as
    jet(t)[..., 0, :]."""

    def acceptance_forcing(self):
        """p(t) = (1 + cos t, 0)."""
        return model.Perturbation(period=T, const=(1.0, 0.0),
                                  cos=[(1.0, 0.0)])

    def test_evaluation(self):
        fs = self.acceptance_forcing()
        assert np.allclose(fs.jet(0.0)[0], [2.0, 0.0])
        assert np.allclose(fs.jet(np.pi)[0], [0.0, 0.0])
        assert fs.dim == 2

    def test_mean_is_exact(self):
        fs = self.acceptance_forcing()
        assert np.array_equal(fs.const, [1.0, 0.0])
        # quadrature cross-check
        ts = np.linspace(0.0, T, 20001)
        vals = fs.jet(ts)[:, 0]
        assert np.allclose(np.trapezoid(vals, ts, axis=0) / T, [1.0, 0.0],
                           atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            model.Perturbation(period=T, const=(1.0, 0.0),
                               cos=[(1.0, 0.0, 0.0)])


class TestStateLayout:
    def test_pack_unpack_roundtrip(self):
        for dim in (2, 3):
            X = random_state(dim)
            z, w, t, tau = model.unpack_state(X)
            assert np.allclose(model.pack_state(z, w, t, tau), X)
            assert model.state_dim(dim) == len(X)

    def test_bad_sizes(self):
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

    @pytest.mark.parametrize("rows", [None, 1, 48, 1000])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_position_jacobian_is_an_exact_gather(self, dim, rows):
        """A = B z by a gather, C-contiguous, so position z^T B z / 2
        keeps the bits of the matvec of B on one state and on stacks."""
        zd = 2 * dim - 2
        z = rng.normal(size=(zd,) if rows is None else (rows, zd))
        B = model._position_hessians(zd)
        A = model.position_jacobian(z)
        want = np.matvec(B, z[..., None, :])
        assert A.flags.c_contiguous
        assert np.array_equal(A, want)
        assert np.array_equal(model.position(z), 0.5 * np.matvec(want, z))

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
                return float(np.dot(zz, zz)) * pert.evaluate(
                    t, model.position(zz))[0]

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
        g = grad_z_P(z, t, 1e-3, pert)
        zc = complex(z[0], z[1])
        u = model.position(z)
        U, gu = pert.evaluate(t, u)[:2]
        expected = (2.0 * U * zc
                    + 2.0 * abs(zc) ** 2
                    * np.conj(zc) * complex(gu[0], gu[1]))
        assert g[0] == pytest.approx(expected.real, abs=1e-12)
        assert g[1] == pytest.approx(expected.imag, abs=1e-12)

    def test_nonzero_eps_needs_a_perturbation(self):
        """eps alone decides whether U is evaluated: a nonzero eps with
        no perturbation raises a ValueError that names both, rather than
        returning the eps = 0 field."""
        missing = r"eps = 0\.001 needs a perturbation, but pert is None"
        for dim in (2, 3):
            X = random_state(dim)
            for fn in (model.reg_field, model.reg_field_jacobian,
                       model.reg_energy_gradient):
                with pytest.raises(ValueError, match=missing):
                    fn(X, 1e-3)
            for fn in (model.reg_energy, model.state_energy):
                with pytest.raises(ValueError, match=missing):
                    fn(X, 1e-3, None)
        with pytest.raises(ValueError, match=missing):
            model.physical_field(0.3, [1.0, 0.0, 0.0, 0.5], 1e-3, None)

    def test_P_vanishes_at_origin(self):
        pert = sample_pert(2)
        X = model.pack_state([0.0, 0.0], [1.0, 2.0], 0.5, 0.7)
        # K at z = 0 sees no perturbation: tau |z|^2 and eps P both vanish
        assert model.reg_energy(X, 1e-2, pert) == pytest.approx(
            np.dot([1.0, 2.0], [1.0, 2.0]) / 8.0 - 1.0, rel=1e-13)

    def test_field_jacobian_fd(self):
        """For the Fourier forcing and the zero perturbation; the field
        returned beside the Jacobian is reg_field's, bit for bit."""
        for dim in (2, 3):
            for pert in (sample_pert(dim), model.zero_perturbation(T, dim)):
                for eps in (0.0, 1e-3, 1e-2):
                    X = random_state(dim)
                    F, J = model.reg_field_jacobian(X, eps, pert)
                    assert np.array_equal(F, model.reg_field(X, eps, pert))
                    for i in range(len(X)):
                        h = 1e-6
                        Xp, Xm = X.copy(), X.copy()
                        Xp[i] += h
                        Xm[i] -= h
                        col = (model.reg_field(Xp, eps, pert)
                               - model.reg_field(Xm, eps, pert)) / (2 * h)
                        assert np.allclose(J[:, i], col, atol=5e-7), \
                            f"dim={dim} {pert.name} eps={eps} column {i}"

    def test_closed_form_second_derivatives_match_fd(self):
        """The Fourier forcing's closed-form jet against an independent
        reference: value and grad against <p(t), u> and p(t) from the
        forcing series itself, dt against a central difference of
        <p(t), u>, and the second derivatives against central
        differences of its grad and dt, with step 1e-6 max(1, |u_i|) in
        u and 1e-6 max(1, T) in t."""
        for dim in (2, 3):
            pert = sample_pert(dim)
            t = rng.uniform(-T, 2 * T, size=5)
            u = rng.normal(size=(5, dim))
            value, grad, dt, grad_dt, dt2 = pert.evaluate(t, u)
            p = pert.jet(t)[:, 0]
            assert np.allclose(value, np.vecdot(p, u), atol=5e-7), \
                f"dim={dim} value"
            assert np.allclose(grad, p, atol=5e-7), f"dim={dim} grad"
            ht = 1e-6 * max(1.0, T)
            ref_dt = (np.vecdot(pert.jet(t + ht)[:, 0], u)
                      - np.vecdot(pert.jet(t - ht)[:, 0], u)) / (2 * ht)
            assert np.allclose(dt, ref_dt, atol=5e-7), f"dim={dim} dt"
            hu = 1e-6 * np.maximum(1.0, np.abs(u))
            for i in range(dim):
                step = np.zeros(dim)
                step[i] = 1.0
                dgrad = (pert.evaluate(t, u + hu[:, i:i + 1] * step)[1]
                         - pert.evaluate(t, u - hu[:, i:i + 1] * step)[1]
                         ) / (2 * hu[:, i:i + 1])
                assert np.allclose(dgrad, 0.0, atol=5e-7), f"dim={dim} hess"
            plus = pert.evaluate(t + ht, u)
            minus = pert.evaluate(t - ht, u)
            assert np.allclose(grad_dt, (plus[1] - minus[1]) / (2 * ht),
                               atol=5e-7), f"dim={dim} grad_dt"
            assert np.allclose(dt2, (plus[2] - minus[2]) / (2 * ht),
                               atol=5e-7), f"dim={dim} dt2"

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [1, 4, 40])
    def test_kernel_matches_reference(self, dim, m):
        """F and J agree with the term-by-term reference assembly to
        rtol 1e-13 (atol 1e-16 for entries that vanish in the
        reference), for one state and stacks of 4 and 40."""
        Xs = np.array([random_state(dim) for _ in range(m)])
        if m == 1:
            Xs = Xs[0]
        for pert in (sample_pert(dim), model.zero_perturbation(T, dim)):
            for eps in (0.0, 1e-3, 1e-2):
                F_ref, J_ref = reference_field_jacobian(Xs, eps, pert)
                F, J = model.reg_field_jacobian(Xs, eps, pert)
                for name, got, ref in (("F", F, F_ref), ("J", J, J_ref),
                                       ("reg_field",
                                        model.reg_field(Xs, eps, pert),
                                        F_ref)):
                    np.testing.assert_allclose(
                        got, ref, rtol=1e-13, atol=1e-16,
                        err_msg=f"dim={dim} m={m} {pert.name} eps={eps} "
                                f"{name}")

    def test_stacked_kernels_match_rows(self):
        """A stack of states gives the row-by-row results, for
        the Fourier forcing and the zero perturbation, and the same for BL and
        the position map.  The field that
        reg_field_jacobian returns is reg_field's, bit for bit, for one
        state and for a stack."""
        for dim in (2, 3):
            Xs = np.array([random_state(dim) for _ in range(5)])
            for pert in (sample_pert(dim), model.zero_perturbation(T, dim)):
                for eps in (0.0, 1e-3, 1e-2):
                    for fn in (model.reg_energy, model.reg_field,
                               model.reg_energy_gradient):
                        rows = np.array([fn(X, eps, pert) for X in Xs])
                        assert np.allclose(fn(Xs, eps, pert), rows,
                                           rtol=1e-14, atol=1e-15), \
                            f"dim={dim} eps={eps} {fn.__name__}"
                    F, J = model.reg_field_jacobian(Xs, eps, pert)
                    assert np.array_equal(F, model.reg_field(Xs, eps, pert))
                    pairs = [model.reg_field_jacobian(X, eps, pert)
                             for X in Xs]
                    for X, (F_row, _) in zip(Xs, pairs):
                        assert np.array_equal(F_row,
                                              model.reg_field(X, eps, pert))
                    assert np.allclose(J, [J_row for _, J_row in pairs],
                                       rtol=1e-14, atol=1e-15), \
                        f"dim={dim} eps={eps} reg_field_jacobian"
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
        # (i z, i w, 0, 0), one state or a stack of them
        from kepreg.algebra import i_mul
        z, w, _, _ = model.unpack_state(X)
        assert np.array_equal(model.group_direction(X),
                              model.pack_state(i_mul(z), i_mul(w), 0.0, 0.0))
        local = np.random.default_rng(7)
        Xs = np.array([X, random_state(3, local), random_state(3, local)])
        assert np.array_equal(model.group_direction(Xs),
                              [model.group_direction(Y) for Y in Xs])
        # an array of angles gives the stack of the single-angle matrices
        ths = np.array([[0.0, th], [-th, 2.5]])
        stack = model.group_rotation_matrix(ths)
        assert stack.shape == (2, 2, 10, 10)
        for idx in np.ndindex(ths.shape):
            assert np.array_equal(stack[idx],
                                  model.group_rotation_matrix(ths[idx]))

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

    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([2, 3]), eps=st.sampled_from([0.0, 1e-3, 1e-1]),
           m=st.integers(1, 4), data=st.data())
    def test_regularized_field_is_physical_field(self, dim, eps, m, data):
        """On K_eps = 0 (and BL = 0 in 3D) the regularized field, read
        through (state_position, state_velocity) and divided by
        dt/ds = |z|^2, is the physical field."""
        zd = 2 * dim - 2
        pert = sample_pert(dim)
        coord = st.floats(-1.5, 1.5)
        Z = np.array(data.draw(st.lists(st.lists(coord, min_size=zd,
                                                 max_size=zd),
                                        min_size=m, max_size=m)))
        W = np.array(data.draw(st.lists(st.lists(coord, min_size=zd,
                                                 max_size=zd),
                                        min_size=m, max_size=m)))
        t = np.array(data.draw(st.lists(st.floats(0.0, T), min_size=m,
                                        max_size=m)))
        r2 = np.vecdot(Z, Z)
        assume(np.all(r2 > 0.25))
        if dim == 3:
            # w along the BL gradient -i z is removed, so BL = 0
            g = -Z @ model.I_MUL_MATRIX.T
            W = W - (np.vecdot(g, W) / r2)[:, None] * g
        U = pert.evaluate(t, model.position(Z))[0]
        tau = (1.0 - np.vecdot(W, W) / 8.0) / r2 + eps * U
        X = np.column_stack([Z, W, t, tau])
        assert np.allclose(model.reg_energy(X, eps, pert), 0.0, atol=1e-12)

        def y(X):
            return np.concatenate([model.state_position(X),
                                   model.state_velocity(X)], axis=-1)

        h = 1e-5
        F = model.reg_field(X, eps, pert)
        dyds = (y(X + h * F) - y(X - h * F)) / (2 * h)
        exact = model.physical_field(t, y(X), eps, pert)
        err = np.linalg.norm(dyds / r2[:, None] - exact, axis=-1)
        assert np.all(err <= 1e-7 * np.linalg.norm(exact, axis=-1))

    def test_energy(self):
        assert model.physical_energy([1.0, 0.0], [0.0, 1.0]) == \
            pytest.approx(-0.5)
