import numpy as np
import pytest

from kepreg import flow, manifolds, model, shooting

T = 2.0 * np.pi
EPS = 1e-3


def forcing_pert(dim):
    if dim == 2:
        return model.forced_kepler(T, cos=[[0.3, 0.0]], sin=[[0.0, 0.3]],
                                   dim=2)
    # same forcing placed in the physical plane reached by the default
    # Levi-Civita plane embedding (first and third components)
    return model.forced_kepler(T, cos=[[0.3, 0.0, 0.0]],
                               sin=[[0.0, 0.0, 0.3]], dim=3)


@pytest.fixture(scope="module")
def family2d():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
    c = manifolds.constants(spec)
    rng = np.random.default_rng(5)
    X_seed = manifolds.seed_state(spec, manifolds.random_seed_params(spec,
                                                                     rng))
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(2), X_seed, c.S, [EPS / 4, EPS / 2, EPS])
    assert diags == []
    return spec, family


@pytest.fixture(scope="module")
def orbit3d():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
    c = manifolds.constants(spec)
    params = manifolds.SeedParams(psi=0.9, phi1=0.4, phi2=1.3, t0=0.2)
    X_seed = manifolds.seed_state(spec, params)
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(3), X_seed, c.S, [EPS / 4])
    assert diags == []
    return spec, family[-1]


class TestResidual:
    def test_zero_at_unperturbed_seed(self):
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            c = manifolds.constants(spec)
            rng = np.random.default_rng(1)
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=0.0, pert=model.zero_perturbation(T, dim),
                X_ref=X0)
            u = shooting.seed_unknowns(problem, X0, c.S)
            res = shooting.residual(problem, u)
            assert np.linalg.norm(res) < 1e-10

    def test_default_segments(self):
        spec = manifolds.ManifoldSpec(k=3, T=T, dim=2)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 2),
            X_ref=np.zeros(6))
        assert problem.m == 12

    def test_pack_unpack_roundtrip(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 3),
            X_ref=np.zeros(10), m=2)
        states = np.arange(20.0).reshape(2, 10)
        u = shooting.pack_unknowns(problem, states, 9.5, 0.3)
        s2, S2, th2 = shooting.unpack_unknowns(problem, u)
        assert np.allclose(s2, states)
        assert S2 == 9.5
        assert th2 == 0.3

    def test_jacobian_matches_directional_differences(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        rng = np.random.default_rng(2)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(2), X_ref=X0)
        u = shooting.seed_unknowns(problem, X0, c.S)
        res, J = shooting.residual_and_jacobian(problem, u)
        assert np.allclose(res, shooting.residual(problem, u), atol=1e-12)
        h = 1e-6
        for i in range(problem.n_unknowns):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            col = (shooting.residual(problem, up)
                   - shooting.residual(problem, um)) / (2 * h)
            scale = max(1.0, np.linalg.norm(J[:, i]))
            assert np.linalg.norm(J[:, i] - col) < 1e-5 * scale, f"column {i}"


def per_segment_reference(problem, u):
    """Segment defects, blocks M_j and S-column of the shooting Jacobian,
    from one single-state variational integration per segment."""
    states, S, theta = shooting.unpack_unknowns(problem, u)
    ends, Ms = [], []
    for X in states:
        traj, M = flow.integrate_with_variational(
            problem.field, problem.jacobian, X, S / problem.m, problem.cfg)
        ends.append(traj.states[-1, : problem.D])
        Ms.append(M)
    targets = list(states[1:]) + [shooting._rotation(problem, theta)
                                  @ states[0] + problem.time_shift()]
    defects = np.concatenate([e - t for e, t in zip(ends, targets)])
    dS = np.concatenate([problem.field(e) / problem.m for e in ends])
    return defects, Ms, dS


class TestStackedSegments:
    # The stacked system shares one step sequence across the segments
    # (DOP853's error norm is an RMS over every component), so it agrees
    # with separate integrations to the integrator's tolerance (rel_tol
    # 1e-12 on O(1) states and entries of M), not bit for bit; measured
    # differences are below 1e-12.
    TOL = 1e-10

    def test_matches_per_segment_reference(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
            c = manifolds.constants(spec)
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
            u = shooting.seed_unknowns(problem, X0, c.S, 0.1)
            u[: -2] += 1e-4 * rng.normal(size=u.size - 2)
            res, J = shooting.residual_and_jacobian(problem, u)
            defects, Ms, dS = per_segment_reference(problem, u)
            D, m = problem.D, problem.m
            iS = m * D
            assert np.allclose(res[:iS], defects, rtol=0, atol=self.TOL)
            assert np.allclose(shooting.residual(problem, u)[:iS], defects,
                               rtol=0, atol=self.TOL)
            assert np.allclose(J[:iS, iS], dS, rtol=0, atol=self.TOL)
            for j, M in enumerate(Ms):
                rows = J[j * D:(j + 1) * D]
                assert np.allclose(rows[:, j * D:(j + 1) * D], M, rtol=0,
                                   atol=self.TOL)
                if j + 1 < m:
                    assert np.array_equal(
                        rows[:, (j + 1) * D:(j + 2) * D], -np.eye(D))


class TestTypedFailures:
    def test_winding_failure_becomes_shooting_error(self, monkeypatch):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 2), X_ref=X0)
        u = shooting.seed_unknowns(problem, X0, c.S)

        def no_winding(X0, X_end, T):
            raise ValueError("time winding 0.5 is not close to an integer")

        monkeypatch.setattr(shooting, "index_of_winding", no_winding)
        with pytest.raises(shooting.ShootingError, match="winding") as info:
            shooting.solve(problem, u)
        assert np.array_equal(info.value.best_unknowns, u)
        assert info.value.best_residual < 1e-9

    def test_nonfinite_jacobian_becomes_shooting_error(self, monkeypatch):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        real = shooting.residual_and_jacobian

        def nan_jacobian(problem, unknowns):
            res, J = real(problem, unknowns)
            J[0, 0] = np.nan
            return res, J

        monkeypatch.setattr(shooting, "residual_and_jacobian", nan_jacobian)
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(2), X_ref=X0)
        u = shooting.seed_unknowns(problem, X0, c.S)
        with pytest.raises(shooting.ShootingError, match="SVD") as info:
            shooting.solve(problem, u)
        assert info.value.best_unknowns is not None
        # continuation halves eps, then reports the failure instead of
        # raising it
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, c.S, [EPS], step_floor=EPS / 2)
        assert family == []
        assert [d["eps"] for d in diags] == [EPS / 2]
        assert "SVD" in diags[0]["error"]


class TestSolve:
    def test_family_converged(self, family2d):
        spec, family = family2d
        assert len(family) == 3
        for orbit in family:
            assert orbit.residual_norm < 1e-9
            assert orbit.eta == 1
            assert orbit.k == 1

    def test_band_width_scales_linearly(self, family2d):
        _, family = family2d
        widths = [o.energy_band[1] - o.energy_band[0] for o in family]
        assert widths[0] < widths[1] < widths[2]
        ratio = widths[2] / widths[1]
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_band_center_near_manifold_level(self, family2d):
        spec, family = family2d
        c = manifolds.constants(spec)
        for orbit in family:
            center = 0.5 * (orbit.energy_band[0] + orbit.energy_band[1])
            assert abs(center + c.tau) < 0.1 * c.tau

    def test_orbit_closes(self, family2d):
        spec, family = family2d
        orbit = family[-1]
        pert = forcing_pert(2)
        fld = lambda X: model.reg_field(X, orbit.eps, pert)
        X_end = flow.integrate(fld, orbit.X0, orbit.S).eval(orbit.S)
        diff = X_end - orbit.X0
        assert diff[-2] == pytest.approx(T, abs=1e-8)
        diff[-2] = 0.0
        assert np.linalg.norm(diff) < 1e-8

    def test_monodromy_attached(self, family2d):
        _, family = family2d
        orbit = family[-1]
        assert orbit.monodromy.det == pytest.approx(1.0, abs=1e-6)
        assert len(orbit.multipliers()) == 6

    def test_solver_reports_failure(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X_bad = model.pack_state([0.9, 0.1], [0.3, -0.4], 0.0, 0.9)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.3, pert=forcing_pert(2), X_ref=X_bad)
        u = shooting.pack_unknowns(
            problem, np.tile(X_bad, (problem.m, 1)), 5.0)
        with pytest.raises((shooting.ShootingError, flow.FlowError)):
            shooting.solve(problem, u, max_outer=2)


class TestSpatial:
    def test_3d_orbit(self, orbit3d):
        spec, orbit = orbit3d
        assert orbit.residual_norm < 1e-9
        assert orbit.eta == 1
        assert abs(model.bl_value(orbit.X0)) < 1e-9

    def test_bl_conserved_along_orbit(self, orbit3d):
        spec, orbit = orbit3d
        pert = forcing_pert(3)
        fld = lambda X: model.reg_field(X, orbit.eps, pert)
        traj = flow.integrate(fld, orbit.X0, orbit.S)
        rep = flow.invariant_report(traj, orbit.eps, pert)
        assert rep["bl_drift"] < 1e-9
        assert rep["k_drift"] < 1e-9

    def test_embedded_2d_solution_is_3d_fixed_point(self, family2d):
        """A converged planar orbit, embedded in the default Levi-Civita
        plane, zeroes the spatial residual with theta = 0."""
        _, family = family2d
        orbit = family[-1]
        z, w, t0, tau = model.unpack_state(orbit.X0)
        plane = np.column_stack([[1.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.0]])
        X3 = model.pack_state(plane @ z, plane @ w, t0, tau)
        spec3 = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        problem = shooting.ShootingProblem(
            spec=spec3, eps=orbit.eps, pert=forcing_pert(3), X_ref=X3)
        u = shooting.seed_unknowns(problem, X3, orbit.S)
        res = shooting.residual(problem, u)
        assert np.linalg.norm(res) < 1e-7


class TestEnergyBand:
    def test_matches_per_point_loop(self):
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            c = manifolds.constants(spec)
            pert = forcing_pert(dim)
            X0 = manifolds.seed_state(spec, manifolds.SeedParams(
                psi=0.9, phi1=0.4, phi2=1.3, t0=0.2))
            traj = flow.integrate(lambda X: model.reg_field(X, EPS, pert),
                                  X0, c.S)
            energies = []
            for s in np.linspace(traj.s0, traj.s_end, 400):
                z, _, t, tau = model.unpack_state(traj.eval(s))
                energies.append(-tau + EPS * pert.value(t, model.position(z),
                                                        EPS))
            band = shooting.energy_band(traj, EPS, pert)
            assert np.allclose(band, (min(energies), max(energies)),
                               rtol=1e-14, atol=1e-15)


class TestWinding:
    def test_index_of_winding(self):
        X0 = np.zeros(6)
        X_end = np.zeros(6)
        X_end[-2] = 2.0 * T
        assert shooting.index_of_winding(X0, X_end, T) == 2

    def test_non_integer_rejected(self):
        X0 = np.zeros(6)
        X_end = np.zeros(6)
        X_end[-2] = 1.5 * T
        with pytest.raises(ValueError):
            shooting.index_of_winding(X0, X_end, T)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            shooting.index_of_winding(np.zeros(6), np.zeros(6), T)


class TestDistinctness:
    def _orbit(self, band):
        return shooting.PeriodicOrbit(
            X0=np.zeros(6), S=1.0, eps=0.0, eta=1, residual_norm=0.0,
            energy_band=band, monodromy=None)

    def test_disjoint(self):
        rep = shooting.distinctness([self._orbit((-1.0, -0.9)),
                                     self._orbit((-0.5, -0.4))])
        assert rep["all_disjoint"]
        assert rep["pairs"][0]["gap"] == pytest.approx(0.4)

    def test_overlap(self):
        rep = shooting.distinctness([self._orbit((-1.0, -0.5)),
                                     self._orbit((-0.6, -0.4))])
        assert not rep["all_disjoint"]


class TestArchive:
    def test_save_load_roundtrip(self, family2d, tmp_path):
        _, family = family2d
        path = tmp_path / "orbits.json"
        shooting.save_orbits(family, path, meta={"note": "test"})
        data = shooting.load_orbits(path)
        assert data["meta"]["note"] == "test"
        assert len(data["orbits"]) == len(family)
        rec = data["orbits"][-1]
        assert rec["eps"] == family[-1].eps
        assert np.allclose(rec["X0"], family[-1].X0)
        assert rec["eta"] == 1
