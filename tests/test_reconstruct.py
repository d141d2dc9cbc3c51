import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

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

    def test_accurate_near_collisions_in_one_call(self, rect_gensol):
        """An array of times at and around every collision, a third of
        them left by Newton to the bracketed root finder, inverts in one
        call to t(s_of(t)) = t."""
        tm = rect_gensol.tmap
        ts = np.array([c.t0 + sign * off for c in rect_gensol.collisions
                       for off in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
                       for sign in (-1.0, 1.0)])
        assert sum(not per_point_newton(tm, t)[1] for t in ts) >= ts.size / 4
        assert np.allclose(tm.t_of(tm.s_of(ts)), ts, rtol=0.0, atol=1e-11)

    def test_array_matches_per_point_newton(self):
        """s_of on an array gives, point for point, what the per-point
        Newton polish gives; points left to the bracketed root finder
        agree in t(s)."""
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
            reconstruct.collision_limits(circ_gensol.traj, 1.0, 0.0, None)


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
        energy = lambda t: model.state_energy(
            rect_gensol.state_at_t(t), rect_gensol.eps, rect_gensol.pert)
        for off in (1e-4, 1e-2):
            assert energy(c.t0 + off) == pytest.approx(c.energy, abs=1e-9)
            assert energy(c.t0 - off) == pytest.approx(c.energy, abs=1e-9)

    def test_array_evaluation_matches_scalar_calls(self, rect_gensol):
        forced = model.Perturbation(T, np.zeros(2), [[0.3, 0.0]], [[0.0, 0.3]])
        for gensol in (rect_gensol,
                       dataclasses.replace(rect_gensol, eps=1e-3,
                                           pert=forced)):
            c = gensol.collisions[0]
            ts = np.concatenate([
                np.linspace(gensol.t_start, gensol.t_start + T, 37),
                c.t0 + np.array([-1e-3, -1e-6, 1e-6, 1e-3])])
            v = lambda t: model.state_velocity(gensol.state_at_t(t))
            energy = lambda t: model.state_energy(gensol.state_at_t(t),
                                                  gensol.eps, gensol.pert)
            for fn in (gensol.u, v, energy):
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
        reconstruct.generalized_to_csv(rect_gensol, path,
                                       header_lines=["demo = 1"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo = 1"
        assert lines[1].startswith("t,u0,u1,r,E")
        footer = [ln for ln in lines if ln.startswith("# collision")]
        assert len(footer) == len(rect_gensol.collisions)


def row_writer_csv(gensol, path, header_lines=()):
    """generalized_to_csv as it wrote its rows before, one f-string per
    value: the reference for the byte-for-byte test."""
    ts, X, vs = gensol._sample(reconstruct.CSV_SAMPLES)
    us = model.state_position(X)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        ucols = ",".join(f"u{i}" for i in range(gensol.dim))
        fh.write(f"t,{ucols},r,E,near_collision\n")
        rows = np.column_stack([ts, us, np.linalg.norm(us, axis=-1),
                                model.state_energy(X, gensol.eps,
                                                   gensol.pert)])
        for row, near in zip(rows, np.isnan(vs).any(axis=-1)):
            fh.write(",".join(f"{x:.16e}" for x in row) + f",{near:d}\n")
        for c in gensol.collisions:
            d = ",".join(f"{x:.12e}" for x in c.direction)
            fh.write(f"# collision t0={c.t0:.12e} s0={c.s0:.12e} "
                     f"direction={d} energy={c.energy:.12e}\n")


class TestCsvBytes:
    def test_matches_row_writer(self, rect_gensol, tmp_path, monkeypatch):
        """The same bytes as the per-value writer, near-collision flags,
        NaN, infinities and signed zeros included."""
        ts, X, vs = rect_gensol._sample(reconstruct.CSV_SAMPLES)
        assert 0 < np.isnan(vs).any(axis=-1).sum() < len(ts)
        X = X.copy()
        X[3, 0] = np.nan
        X[5, -1] = np.inf
        X[7, -1] = 0.0              # E = -tau = -0.0
        monkeypatch.setattr(rect_gensol, "_sample", lambda n: (ts, X, vs))
        for name, writer in (("got", reconstruct.generalized_to_csv),
                             ("want", row_writer_csv)):
            writer(rect_gensol, tmp_path / name, header_lines=["a = 1"])
        got = (tmp_path / "got").read_bytes()
        assert got == (tmp_path / "want").read_bytes()
        assert b",nan," in got and b",-0.0000000000000000e+00," in got


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
    """The window profile of collision removal: bump, bump' and bump''
    from ``reconstruct._bump_jet``."""

    @staticmethod
    def jet(x):
        return reconstruct._bump_jet(x)

    def test_plateau_and_support(self):
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert self.jet(x)[0] == pytest.approx(1.0, abs=1e-12)
        for x in (-2.5, -2.0, 2.0, 3.0):
            assert self.jet(x)[0] == 0.0
        assert 0.0 < self.jet(1.5)[0] < 1.0

    def test_derivatives_fd(self):
        h = 1e-6
        for x in (-1.7, -1.3, 1.2, 1.8):
            fd = (self.jet(x + h) - self.jet(x - h)) / (2 * h)
            _, d1, d2 = self.jet(x)
            assert d1 == pytest.approx(fd[0], abs=1e-7)
            assert d2 == pytest.approx(fd[1], abs=1e-6)

    def test_arrays_match_scalars(self):
        xs = np.linspace(-2.5, 2.5, 41)
        jet = self.jet(xs)
        assert jet.shape == (3, 41)
        assert np.array_equal(jet, np.transpose([self.jet(x) for x in xs]))
        assert self.jet(xs.reshape(-1, 1)).shape == (3, 41, 1)

    def test_smoothness_at_junctions(self):
        for x0 in (-2.0, -1.0, 1.0, 2.0):
            assert np.allclose(self.jet(x0 - 1e-9), self.jet(x0 + 1e-9),
                               rtol=0.0, atol=1e-6)


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
        ss = np.linspace(0.0, c.S, reconstruct.L1_SAMPLES)
        for m in range(5):
            out = reconstruct.remove_collisions(traj, c.S, 0.1 * 2.0 ** (-m),
                                                0.0, pert)
            vals = (np.linalg.norm(out.p_mu(out.t_of_s(ss)), axis=-1)
                    * np.abs(out.z_mu(ss)) ** 2)
            ref = np.trapezoid(vals, ss)
            assert out.forcing_l1() == pytest.approx(ref, rel=1e-8)

    def test_time_callables_on_arrays_match_per_point_calls(self, source):
        """s_of_t, u_mu and p_mu on an array of any shape equal their
        per-point calls; u_mu and p_mu append an axis of 2.  numpy's
        complex arithmetic in p_of_s rounds an array and a scalar
        differently, so p_mu agrees to rounding (4 eps of its size, or
        of 1 where it cancels to near 0)."""
        c, traj, pert = source
        out = reconstruct.remove_collisions(traj, c.S, 0.05, 0.0, pert)
        ts = np.concatenate([[0.0, out.T_mu, -0.5, out.T_mu + 0.5],
                             out.t_of_s(np.asarray(out.collisions_s)),
                             np.random.default_rng(1).random(24) * out.T_mu])
        for name, tol in (("s_of_t", 0.0), ("u_mu", 0.0), ("p_mu", 1e-15)):
            fn = getattr(out, name)
            per_point = np.array([fn(t) for t in ts])
            grid = (5, 6) + per_point.shape[1:]
            for got, want in ((fn(ts), per_point),
                              (fn(ts.reshape(5, 6)), per_point.reshape(grid))):
                assert got.shape == want.shape, name
                assert np.allclose(got, want, rtol=tol, atol=tol), name
        assert np.ndim(out.s_of_t(ts[5])) == 0
        assert out.u_mu(ts[5]).shape == out.p_mu(ts[5]).shape == (2,)

    def test_u_mu_consistency(self, source):
        c, traj, pert = source
        out = reconstruct.remove_collisions(traj, c.S, 0.1, 0.0, pert)
        # u_mu at time t matches z_mu at the corresponding s
        for s in (0.7, 2.0, 5.0):
            t = out.t_of_s(s)
            z = out.z_mu(out.s_of_t(t))
            assert np.allclose(out.u_mu(t),
                               [(z * z).real, (z * z).imag], atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2])
    def test_time_map_matches_quad(self, k):
        """t_of_s and T_mu against adaptive quadrature of |z_mu|^2 split
        at the panel breaks: the trajectory's steps and 32 equal panels
        across each window [s_c - 2 mu, s_c + 2 mu]."""
        _, c, orbit = collision_orbit(k)
        traj = flow.integrate(lambda X: model.reg_field(X, 0.0, None),
                              orbit.X0, c.S)
        rng = np.random.default_rng(k)
        for mu in (0.2, 0.1, 0.0125):
            out = reconstruct.remove_collisions(traj, c.S, mu, 0.0, None)
            centres = np.add.outer(out.collisions_s, [-c.S, 0.0, c.S])
            cuts = np.add.outer(centres.ravel(),
                                mu * np.linspace(-2.0, 2.0, 33))
            br = np.unique(np.concatenate([traj.s, cuts.ravel(),
                                           [0.0, c.S]]))
            br = br[(br >= 0.0) & (br <= c.S)]

            def f(s):
                return abs(out.z_mu(s)) ** 2

            cum = np.cumsum([0.0] + [quad(f, a, b, epsabs=1e-14)[0]
                                     for a, b in zip(br[:-1], br[1:])])
            assert abs(out.T_mu - cum[-1]) < 1e-10
            assert np.max(np.abs(out.t_of_s(br) - cum)) < 1e-10
            i = rng.integers(0, len(br) - 1, 40)
            ss = br[i] + rng.random(40) * (br[i + 1] - br[i])
            ref = cum[i] + [quad(f, br[j], s, epsabs=1e-14)[0]
                            for j, s in zip(i, ss)]
            assert np.max(np.abs(out.t_of_s(ss) - ref)) < 1e-10

    def test_t_of_s_array_matches_scalar_calls(self, source):
        c, traj, pert = source
        out = reconstruct.remove_collisions(traj, c.S, 0.1, 0.0, pert)
        ss = np.concatenate([[0.0, c.S], out.collisions_s,
                             np.random.default_rng(0).random(50) * c.S])
        scalar = np.array([out.t_of_s(s) for s in ss])
        # exact at the ends, so s_of_t brackets every t in [0, T_mu)
        assert out.t_of_s(0.0) == 0.0 and out.t_of_s(c.S) == out.T_mu
        assert out.s_of_t(out.T_mu) == 0.0
        assert all(np.ndim(out.t_of_s(s)) == 0 for s in ss)
        assert np.array_equal(out.t_of_s(ss), scalar)
        assert np.array_equal(out.t_of_s(ss.reshape(6, -1)),
                              scalar.reshape(6, -1))

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
