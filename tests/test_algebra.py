import numpy as np
import pytest

from kepreg.algebra import (
    QUAT_I,
    QUAT_ONE,
    i_mul,
    ks_gradient_transport,
    ks_map,
    lc_map,
    lc_plane_basis,
    lc_plane_check,
    lc_position,
    pure,
    quat_conj,
    quat_mul,
    quat_norm,
)

rng = np.random.default_rng(42)


class TestQuaternions:
    def test_identity(self):
        q = rng.normal(size=4)
        assert np.allclose(quat_mul(QUAT_ONE, q), q)
        assert np.allclose(quat_mul(q, QUAT_ONE), q)

    def test_associativity(self):
        for _ in range(50):
            p, q, r = rng.normal(size=(3, 4))
            left = quat_mul(quat_mul(p, q), r)
            right = quat_mul(p, quat_mul(q, r))
            assert np.allclose(left, right, atol=1e-12)

    def test_norm_multiplicative(self):
        for _ in range(50):
            p, q = rng.normal(size=(2, 4))
            assert quat_norm(quat_mul(p, q)) == pytest.approx(
                quat_norm(p) * quat_norm(q), rel=1e-12)

    def test_conjugation_reverses_products(self):
        for _ in range(20):
            p, q = rng.normal(size=(2, 4))
            assert np.allclose(quat_conj(quat_mul(p, q)),
                               quat_mul(quat_conj(q), quat_conj(p)),
                               atol=1e-12)

    def test_i_mul_is_left_multiplication(self):
        for _ in range(20):
            q = rng.normal(size=4)
            assert np.allclose(i_mul(q), quat_mul(QUAT_I, q))

    def test_pure_and_imag_part(self):
        u = np.array([1.0, 2.0, 3.0])
        assert np.allclose(pure(u)[1:], u)
        assert pure(u)[0] == 0.0


class TestLeviCivita:
    def test_example_one_plus_i(self):
        u, v = lc_map(1 + 1j, 2.0)
        assert u == pytest.approx(2j)
        assert v == pytest.approx((1 + 1j) / 2)

    def test_example_identity_like(self):
        assert lc_map(1.0, 0.0) == (1.0, 0.0)

    def test_example_imaginary(self):
        # cross-checked by the inverse relation u = z^2, 2 conj(z) v = w
        u, v = lc_map(1j, 4j)
        assert u == pytest.approx(-1.0)
        assert v == pytest.approx(-2.0)
        assert 2.0 * np.conj(1j) * v == pytest.approx(4j)

    def test_collision_point_rejected(self):
        with pytest.raises(ValueError):
            lc_map(0.0, 1.0)

    def test_position_total(self):
        assert lc_position(0.0) == 0.0
        assert lc_position(1 + 1j) == pytest.approx(2j)

    def test_position_norm(self):
        for _ in range(20):
            z = complex(*rng.normal(size=2))
            assert abs(lc_position(z)) == pytest.approx(abs(z) ** 2,
                                                        rel=1e-13)


class TestKustaanheimoStiefel:
    def test_basis_examples(self):
        assert np.allclose(ks_map(np.array([1.0, 0, 0, 0])), [1, 0, 0])
        assert np.allclose(ks_map(np.array([0.0, 0, 1, 0])), [-1, 0, 0])

    def test_matches_quaternion_product(self):
        for _ in range(20):
            z = rng.normal(size=4)
            full = quat_mul(quat_conj(z), i_mul(z))
            assert abs(full[0]) < 1e-12
            assert np.allclose(ks_map(z), full[1:], atol=1e-12)

    def test_norm_identity(self):
        for _ in range(1000):
            z = rng.normal(size=4) * rng.choice([0.1, 1.0, 10.0])
            n = np.linalg.norm(ks_map(z))
            assert n == pytest.approx(np.dot(z, z), rel=1e-13, abs=1e-15)

    def test_fiber_invariance(self):
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            z = rng.normal(size=4)
            g = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
            assert np.allclose(ks_map(quat_mul(g, z)), ks_map(z), atol=1e-12)


class TestGradientTransport:
    def test_zero(self):
        out = ks_gradient_transport(np.zeros(4), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, 0.0)

    def _fd_gradient(self, G, z, h=1e-6):
        g = np.empty(4)
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            g[i] = (G(ks_map(zp)) - G(ks_map(zm))) / (2 * h)
        return g

    def test_against_finite_differences(self):
        def G(u):
            return u[0] + 0.3 * u[1] * u[2] - 0.5 * u[2] ** 2

        def gradG(u):
            return np.array([1.0, 0.3 * u[2], 0.3 * u[1] - u[2]])

        for _ in range(100):
            z = rng.normal(size=4)
            expected = self._fd_gradient(G, z)
            got = ks_gradient_transport(z, gradG(ks_map(z)))
            scale = max(1.0, np.linalg.norm(expected))
            assert np.linalg.norm(got - expected) < 1e-6 * scale

    def test_norm_squared_identity(self):
        # G(u) = |u|^2 composes to |z|^4, whose gradient is 4 |z|^2 z
        for _ in range(50):
            z = rng.normal(size=4)
            got = ks_gradient_transport(z, 2.0 * ks_map(z))
            assert np.allclose(got, 4.0 * np.dot(z, z) * z, atol=1e-12)


class TestLeviCivitaPlanes:
    def test_i_pair_fails(self):
        assert not lc_plane_check(np.array([1.0, 0, 0, 0]),
                                  np.array([0.0, 1, 0, 0]))

    def test_j_pair_passes(self):
        assert lc_plane_check(np.array([1.0, 0, 0, 0]),
                              np.array([0.0, 0, 1, 0]))

    def test_rotation_invariance(self):
        v1 = np.array([1.0, 0, 0, 0])
        for v2, expected in ((np.array([0.0, 1, 0, 0]), False),
                             (np.array([0.0, 0, 1, 0]), True)):
            for theta in np.linspace(0.0, 2 * np.pi, 9):
                g = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
                got = lc_plane_check(quat_mul(g, v1), quat_mul(g, v2))
                assert got == expected

    def test_dependent_inputs_rejected(self):
        v = rng.normal(size=4)
        with pytest.raises(ValueError):
            lc_plane_check(v, 2.0 * v)
        with pytest.raises(ValueError):
            lc_plane_check(v, np.zeros(4))

    def test_basis_construction(self):
        for _ in range(20):
            v1, v2 = lc_plane_basis(rng.normal(size=4),
                                    rng.uniform(0.0, 2 * np.pi))
            assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.dot(v1, v2)) < 1e-12
            assert lc_plane_check(v1, v2)

    def test_stacked_basis_is_each_rows_basis(self):
        """One batched QR gives every row the bits of its own call."""
        V, angles = rng.normal(size=(2, 5, 4)), rng.uniform(0.0, 6.0, (2, 5))
        V1, V2 = lc_plane_basis(V, angles)
        assert V1.shape == V2.shape == (2, 5, 4)
        for idx in np.ndindex(2, 5):
            v1, v2 = lc_plane_basis(V[idx], angles[idx])
            assert np.array_equal(V1[idx], v1)
            assert np.array_equal(V2[idx], v2)
        with pytest.raises(ValueError, match="nonzero"):
            lc_plane_basis(np.vstack([V[0], np.zeros(4)]), 0.0)

    def test_i_mul_broadcasts(self):
        Q = rng.normal(size=(3, 4))
        assert np.array_equal(i_mul(Q), [i_mul(q) for q in Q])
