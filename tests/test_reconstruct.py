import dataclasses

import numpy as np
import pytest

from kepreg import flow, manifolds, model, reconstruct, shooting

T = 2.0 * np.pi


def collision_orbit(k=1, dim=2):
    """Unperturbed rectilinear orbit: the simplest collision solution."""
    spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
    c = manifolds.constants(spec)
    X0 = manifolds.seed_state(spec, manifolds.rectilinear_seed_params(spec))
    return spec, c, shooting.PeriodicOrbit(
        X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
        energy_band=(-c.tau, -c.tau), monodromy=None, k=k, dim=dim)


def circular_orbit(k=1):
    spec = manifolds.ManifoldSpec(k=k, T=T, dim=2)
    c = manifolds.constants(spec)
    X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
    return spec, c, shooting.PeriodicOrbit(
        X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
        energy_band=(-c.tau, -c.tau), monodromy=None, k=k, dim=2)


@pytest.fixture(scope="module")
def rect_gensol():
    _, _, orbit = collision_orbit()
    return reconstruct.to_generalized(orbit, model.zero_perturbation(T, 2))


@pytest.fixture(scope="module")
def circ_gensol():
    _, _, orbit = circular_orbit()
    return reconstruct.to_generalized(orbit, model.zero_perturbation(T, 2))


def per_point_newton(tm, t):
    """Reference inverse of t(s) at one time: at most four Newton steps
    from the table seed; returns (s, converged)."""
    t = float(np.clip(t, tm.t_start, tm.t_end))
    t_scale = max(1.0, abs(tm.t_start), abs(tm.t_end))
    s = float(tm._inv(t))
    for _ in range(4):
        X = tm.traj.eval(s)
        r2 = X[0] ** 2 + X[1] ** 2
        if abs(X[-2] - t) < 1e-13 * t_scale:
            return s, True
        if r2 < 1e-8:
            break
        s = float(np.clip(s - (X[-2] - t) / r2, tm.traj.s0, tm.traj.s_end))
    return s, False


class TestTimeMap:
    def test_inverse_property(self, rect_gensol):
        tm = rect_gensol.tmap
        rng = np.random.default_rng(3)
        for s in rng.uniform(0.0, rect_gensol.traj.s_end, 25):
            assert tm.s_of(tm.t_of(s)) == pytest.approx(s, abs=1e-10)

    def test_accurate_near_collisions(self, rect_gensol):
        """t(s_of(t)) = t even where t(s) is cubically flat."""
        tm = rect_gensol.tmap
        for c in rect_gensol.collisions:
            for off in (1e-10, 1e-6, 1e-3):
                for sign in (-1.0, 1.0):
                    t = c.t0 + sign * off
                    assert tm.t_of(tm.s_of(t)) == pytest.approx(t, abs=1e-11)

    def test_array_matches_per_point_newton(self):
        """s_of on an array gives, point for point, what the per-point
        Newton polish gives; points left to brentq agree in t(s)."""
        _, _, orbit = collision_orbit(k=2)
        tm = reconstruct.to_generalized(orbit,
                                        model.zero_perturbation(T, 2)).tmap
        ts = np.linspace(tm.t_start, tm.t_end, 1000)
        got = tm.s_of(ts)
        assert got.shape == ts.shape
        n_newton = 0
        for t, s_arr in zip(ts, got):
            s, converged = per_point_newton(tm, t)
            if converged:
                n_newton += 1
                assert s_arr == s
            else:
                assert tm.t_of(s_arr) == pytest.approx(t, abs=1e-11)
        assert n_newton > 900
        assert tm.s_of(ts[3]) == got[3]
        assert np.ndim(tm.s_of(ts[3])) == 0

    def test_period_advance(self, rect_gensol):
        tm = rect_gensol.tmap
        assert tm.t_end - tm.t_start == pytest.approx(T, abs=1e-9)

    def test_non_monotone_rejected(self):
        # a trajectory whose t component decreases is not a time map
        fld = lambda y: np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
        X0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.5])
        traj = flow.integrate(fld, X0, 1.0)
        with pytest.raises(ValueError):
            reconstruct.TimeMap(traj)


class TestCollisions:
    def test_rectilinear_events(self, rect_gensol):
        cols = rect_gensol.collisions
        assert len(cols) == 2
        for c in cols:
            assert c.zprime_sq == pytest.approx(0.5, abs=1e-8)
            assert np.allclose(np.abs(c.direction), [1.0, 0.0], atol=1e-8)
            assert c.energy == pytest.approx(-2.0 ** (-1.0 / 3.0), abs=1e-10)

    def test_circular_orbit_has_none(self, circ_gensol):
        assert circ_gensol.collisions == []

    def test_limits_match_extrapolation(self, rect_gensol):
        c = rect_gensol.collisions[0]
        side = reconstruct.collision_side_limits(rect_gensol, c)
        for label in ("minus", "plus"):
            assert np.allclose(side[f"dir_{label}"], c.direction, atol=1e-5)
            assert side[f"energy_{label}"] == pytest.approx(c.energy,
                                                            abs=1e-5)

    def test_velocity_reflection_law(self, rect_gensol):
        c = rect_gensol.collisions[0]
        side = reconstruct.collision_side_limits(rect_gensol, c)
        assert np.allclose(side["vdir_plus"], -side["vdir_minus"],
                           atol=1e-6)

    def test_inconsistent_state_rejected(self, circ_gensol):
        # a non-collision point violates the zero-energy relation
        with pytest.raises(ValueError):
            reconstruct.collision_limits(circ_gensol.traj,
                                         circ_gensol.tmap, 1.0)


class TestGeneralizedSolution:
    def test_solves_physical_equation(self, rect_gensol):
        res = reconstruct.ode_residual(rect_gensol)
        assert res["max_residual"] < 1e-7
        assert res["max_udot_mismatch"] < 1e-7
        assert res["n_used"] > 100

    def test_period_is_eta_T(self, rect_gensol):
        assert rect_gensol.period == pytest.approx(T, abs=1e-12)

    def test_energy_continuous_through_collision(self, rect_gensol):
        c = rect_gensol.collisions[0]
        for off in (1e-4, 1e-2):
            assert rect_gensol.energy(c.t0 + off) == pytest.approx(
                c.energy, abs=1e-9)
            assert rect_gensol.energy(c.t0 - off) == pytest.approx(
                c.energy, abs=1e-9)

    def test_array_evaluation_matches_scalar_calls(self, rect_gensol):
        forced = model.forced_kepler(T, cos=[[0.3, 0.0]], sin=[[0.0, 0.3]])
        for gensol in (rect_gensol,
                       dataclasses.replace(rect_gensol, eps=1e-3,
                                           pert=forced)):
            c = gensol.collisions[0]
            ts = np.concatenate([
                np.linspace(gensol.t_start, gensol.t_start + T, 37),
                c.t0 + np.array([-1e-3, -1e-6, 1e-6, 1e-3])])
            for fn in (gensol.u, gensol.v, gensol.energy):
                rows = np.array([fn(t) for t in ts])
                assert np.allclose(fn(ts), rows, rtol=1e-14, atol=1e-15)
                assert np.allclose(fn(ts.reshape(-1, 1)),
                                   rows.reshape((-1, 1) + rows.shape[1:]),
                                   rtol=1e-14, atol=1e-15)

    def test_sample_excises_velocity(self, rect_gensol):
        ts, us, vs = rect_gensol.sample(200)
        assert us.shape == (200, 2)
        n_nan = int(np.isnan(vs[:, 0]).sum())
        assert 0 < n_nan < 40
        finite = ~np.isnan(vs[:, 0])
        assert np.all(np.isfinite(us))
        assert np.all(np.isfinite(vs[finite]))

    def test_csv_export(self, rect_gensol, tmp_path):
        path = tmp_path / "gen.csv"
        reconstruct.generalized_to_csv(rect_gensol, path, n=100,
                                       header_lines=["demo = 1"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo = 1"
        assert lines[1].startswith("t,u0,u1,r,E")
        footer = [ln for ln in lines if ln.startswith("# collision")]
        assert len(footer) == len(rect_gensol.collisions)


class TestSundmanLift:
    def test_round_trip_collision_orbit(self, rect_gensol):
        lift = reconstruct.sundman_lift(rect_gensol)
        assert lift.kind == "periodic"
        dmax = 0.0
        for s, X in zip(lift.s[::11], lift.states[::11]):
            Xs = rect_gensol.traj.eval(s)
            Xf = Xs.copy()
            Xf[:4] = -Xf[:4]
            dmax = max(dmax, min(np.linalg.norm(X - Xs),
                                 np.linalg.norm(X - Xf)))
        assert dmax < 1e-6

    def test_round_trip_smooth_orbit(self, circ_gensol):
        lift = reconstruct.sundman_lift(circ_gensol)
        dmax = 0.0
        for s, X in zip(lift.s[::11], lift.states[::11]):
            Xs = circ_gensol.traj.eval(s)
            Xf = Xs.copy()
            Xf[:4] = -Xf[:4]
            dmax = max(dmax, min(np.linalg.norm(X - Xs),
                                 np.linalg.norm(X - Xf)))
        assert dmax < 1e-6

    def test_circular_total_period(self, circ_gensol):
        # constant radius: S = T / |u|
        z, _, _, _ = model.unpack_state(circ_gensol.traj.eval(0.0))
        r = float(np.dot(z, z))
        lift = reconstruct.sundman_lift(circ_gensol)
        assert lift.S == pytest.approx(T / r, rel=1e-7)

    def test_rejects_3d(self):
        _, _, orbit = collision_orbit(dim=3)
        gensol = reconstruct.to_generalized(orbit,
                                            model.zero_perturbation(T, 3))
        with pytest.raises(ValueError):
            reconstruct.sundman_lift(gensol)


class TestBump:
    def test_plateau_and_support(self):
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert reconstruct.bump(x) == pytest.approx(1.0, abs=1e-12)
        for x in (-2.5, -2.0, 2.0, 3.0):
            assert reconstruct.bump(x) == 0.0
        assert 0.0 < reconstruct.bump(1.5) < 1.0

    def test_derivatives_fd(self):
        h = 1e-6
        for x in (-1.7, -1.3, 1.2, 1.8):
            d1 = (reconstruct.bump(x + h) - reconstruct.bump(x - h)) / (2 * h)
            assert reconstruct.bump_d1(x) == pytest.approx(d1, abs=1e-7)
            d2 = (reconstruct.bump_d1(x + h)
                  - reconstruct.bump_d1(x - h)) / (2 * h)
            assert reconstruct.bump_d2(x) == pytest.approx(d2, abs=1e-6)

    def test_arrays_match_scalars(self):
        xs = np.linspace(-2.5, 2.5, 41)
        for f in (reconstruct.bump, reconstruct.bump_d1,
                  reconstruct.bump_d2):
            assert isinstance(f(0.3), float)
            assert np.array_equal(f(xs), [f(x) for x in xs])
            assert f(xs.reshape(-1, 1)).shape == (41, 1)

    def test_smoothness_at_junctions(self):
        for x0 in (-2.0, -1.0, 1.0, 2.0):
            for f in (reconstruct.bump, reconstruct.bump_d1,
                      reconstruct.bump_d2):
                assert f(x0 - 1e-9) == pytest.approx(f(x0 + 1e-9), abs=1e-6)


@pytest.fixture(scope="module")
def source():
    spec, c, orbit = collision_orbit()
    pert = model.zero_perturbation(T, 2)
    fld = lambda X: model.reg_field(X, 0.0, pert)
    return c, flow.integrate(fld, orbit.X0, c.S), pert


class TestRemoveCollisions:
    def test_mu_sequence(self, source):
        c, traj, pert = source
        prev_l1 = np.inf
        prev_sup = np.inf
        gensol_u = None
        for m in range(3):
            mu = 0.1 * 2.0 ** (-m)
            out = reconstruct.remove_collisions(traj, c.S, mu, 0.0, pert)
            assert out.min_u > 0.0
            # deformation floor min|u_mu| = mu^6 |bump(0)|^2
            assert out.min_u == pytest.approx(mu ** 6, rel=1e-6)
            assert out.T_mu == pytest.approx(T, abs=1e-5)
            assert out.residual() < 1e-7
            l1 = out.forcing_l1()
            assert l1 < prev_l1
            prev_l1 = l1
            # sup |u_mu - u| over the collision window shrinks too
            z0 = traj.eval(out.collisions_s[0])[:2]
            sup = max(abs(out.z_mu(s) ** 2
                          - complex(*model.position(traj.eval(s)[:2])))
                      for s in np.linspace(0.0, c.S, 400))
            assert sup < prev_sup
            prev_sup = sup

    def test_forcing_l1_matches_round_trip(self, source):
        """Evaluated at s, forcing_l1 matches the reference that maps each
        s to t and solves back for s before evaluating p_mu."""
        c, traj, pert = source
        ss = np.linspace(0.0, c.S, 2000)            # forcing_l1's default
        for m in range(5):
            out = reconstruct.remove_collisions(traj, c.S, 0.1 * 2.0 ** (-m),
                                                0.0, pert)
            vals = [np.linalg.norm(out.p_mu(out.t_of_s(s)))
                    * abs(out.z_mu(s)) ** 2 for s in ss]
            ref = np.trapezoid(vals, ss)
            assert out.forcing_l1() == pytest.approx(ref, rel=1e-8)

    def test_u_mu_consistency(self, source):
        c, traj, pert = source
        out = reconstruct.remove_collisions(traj, c.S, 0.1, 0.0, pert)
        # u_mu at time t matches z_mu at the corresponding s
        for s in (0.7, 2.0, 5.0):
            t = out.t_of_s(s)
            z = out.z_mu(out.s_of_t(t))
            assert np.allclose(out.u_mu(t),
                               [(z * z).real, (z * z).imag], atol=1e-9)

    def test_mu_too_large(self, source):
        c, traj, pert = source
        with pytest.raises(ValueError):
            reconstruct.remove_collisions(traj, c.S, c.S / 2.0, 0.0, pert)

    def test_overlapping_windows_rejected(self, source):
        c, traj, pert = source
        # two collisions a half-period apart: windows overlap for large mu
        with pytest.raises(ValueError):
            reconstruct.remove_collisions(traj, c.S, c.S / 4.5, 0.0, pert)

    def test_open_orbit_rejected(self, source):
        c, traj, pert = source
        with pytest.raises(ValueError):
            reconstruct.remove_collisions(traj, 0.6 * c.S, 0.1, 0.0, pert)
