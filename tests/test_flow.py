import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from kepreg import _solvers, flow, manifolds, model

rng = np.random.default_rng(11)

T = 2.0 * np.pi


def kepler_field(eps=0.0, pert=None):
    return lambda X: model.reg_field(X, eps, pert)


def kepler_field_jacobian(eps=0.0, pert=None):
    return lambda X: model.reg_field_jacobian(X, eps, pert)


class TestIntegrate:
    def test_harmonic_oscillator_oracle(self):
        """x'' = -x integrated as a 2-state system against the closed form."""
        fld = lambda y: np.array([y[1], -y[0]])
        traj = flow.integrate(fld, np.array([1.0, 0.0]), 7.3)
        for s in np.linspace(0.0, 7.3, 40):
            got = traj.eval(s)
            assert got[0] == pytest.approx(np.cos(s), abs=1e-10)
            assert got[1] == pytest.approx(-np.sin(s), abs=1e-10)

    def test_unperturbed_kepler_matches_closed_form(self):
        """A manifold seed in 2D, k = 1, then random states in 2D and 3D
        for k = 1..3: z and w drawn at random, w projected to BL = 0 in
        3D, both scaled onto tau_k |z|^2 + |w|^2 / 8 = 1."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rng))
        cases = [(spec, X0)]
        local = np.random.default_rng(12)
        for dim in (2, 3):
            for k in (1, 2, 3):
                spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
                tau = manifolds.constants(spec).tau
                z, w = local.normal(size=(2, 2 * dim - 2))
                if dim == 3:
                    X = model.pack_state(z, w, 0.0, tau)
                    g = model.bl_gradient(X)[4:8]   # BL is linear in w
                    w = w - (g @ w) / (g @ g) * g
                scale = np.sqrt(tau * (z @ z) + (w @ w) / 8.0)
                X0 = model.pack_state(z / scale, w / scale,
                                      local.uniform(0.0, T), tau)
                assert abs(model.reg_energy(X0, 0.0, None)) < 1e-14
                if dim == 3:
                    assert abs(model.bl_value(X0)) < 1e-14
                cases.append((spec, X0))
        for spec, X0 in cases:
            S = manifolds.constants(spec).S
            traj = flow.integrate(kepler_field(), X0, S)
            for s in np.linspace(0.0, S, 25):
                assert np.allclose(traj.eval(s),
                                   manifolds.closed_form_flow(spec, X0, s),
                                   atol=1e-9), (spec, s)

    def test_tolerance_halving_converges(self):
        """The stepper's end state converges as its tolerances shrink;
        flow fixes them, so the stepper is run on its own."""
        X0 = manifolds.seed_state(
            manifolds.ManifoldSpec(k=1, T=T, dim=2),
            manifolds.circular_seed_params(
                manifolds.ManifoldSpec(k=1, T=T, dim=2)))

        def end_state(rtol):
            stepper = _solvers.DOP853(kepler_field(), X0, 5.0, rtol,
                                      rtol * 1e-2)
            while not stepper.finished:
                assert stepper.step()
            return stepper.y

        ref = end_state(1e-13)
        errs = [np.linalg.norm(end_state(rtol) - ref)
                for rtol in (1e-6, 1e-9, 1e-12)]
        assert errs[0] > errs[2]
        assert errs[2] < 1e-10

    @pytest.mark.parametrize("stack", [False, True])
    def test_endpoint_only_without_dense_output(self, stack):
        """dense=False keeps the start and end points only; the step
        sequence, and so the end state, is the dense integration's, and
        both match scipy's solve_ivp evaluation for evaluation."""
        spec = manifolds.ManifoldSpec(k=2, T=T, dim=2)
        c = manifolds.constants(spec)
        local = np.random.default_rng(7)
        X0 = np.array([manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, local))
            for _ in range(3)])
        X0 = X0 if stack else X0[0]
        fld = kepler_field()
        dense = flow.integrate(fld, X0, c.S)
        ends = flow.integrate(fld, X0, c.S, dense=False)
        assert ends.s.shape == (2,)
        assert ends.states.shape == (2,) + X0.shape
        assert ends.s[0] == 0.0 and ends.s[-1] == dense.s[-1]
        assert np.array_equal(ends.states[0], X0)
        assert np.array_equal(ends.states[-1], dense.states[-1])
        assert ends.sol is None
        with pytest.raises(ValueError):
            ends.eval(1.0)
        for traj, dense_output in ((dense, True), (ends, False)):
            ref = solve_ivp(lambda s, y: fld(y.reshape(X0.shape)).ravel(),
                            (0.0, c.S), X0.ravel(), method="DOP853",
                            rtol=1e-12, atol=1e-14, dense_output=dense_output)
            assert traj.nfev == ref.nfev
            assert np.array_equal(traj.states[-1].ravel(), ref.y[:, -1])
        assert np.array_equal(dense.s, ref.t)
        assert np.array_equal(dense.states.reshape(len(ref.t), -1), ref.y.T)
        # the three dense-output stages per step are the only extra
        # field evaluations
        assert dense.nfev == ends.nfev + 3 * dense.n_steps

    def test_trajectory_properties(self):
        fld = lambda y: np.array([1.0])
        traj = flow.integrate(fld, np.array([0.0]), 2.0)
        assert traj.s0 == 0.0
        assert traj.s_end == 2.0
        assert traj.n_steps >= 1
        assert traj.eval(1.0)[0] == pytest.approx(1.0, abs=1e-12)


class TestDenseOutput:
    """``Trajectory.eval`` against scipy's ``OdeSolution`` rebuilt from
    the trajectory's own steps, states and coefficients: equal bit for
    bit, shapes included."""

    @staticmethod
    def reference(traj):
        """scipy's per-step evaluation of the same steps, its point axis
        moved first and cut to ``eval``'s shapes."""
        flat = traj.states.reshape(traj.n_steps + 1, -1)
        F = traj.sol.reshape(7, -1, traj.n_steps)
        sol = OdeSolution(traj.s, [
            Dop853DenseOutput(traj.s[i], traj.s[i + 1], flat[i], F[..., i])
            for i in range(traj.n_steps)])

        def evaluate(s):
            out = np.moveaxis(sol(s), -1, 0) if np.ndim(s) else sol(s)
            out = out.reshape(np.shape(s) + traj.states.shape[1:])
            return out[..., : traj.dim]

        return evaluate

    @staticmethod
    def points(traj):
        """Unsorted and repeated points, every node, the ends and points
        just outside them."""
        lo, hi = traj.s0, traj.s_end
        inside = np.random.default_rng(5).uniform(lo, hi, 40)
        outside = [np.nextafter(lo, -np.inf), lo - 1e-3,
                   np.nextafter(hi, np.inf), hi + 1e-3]
        return np.concatenate([inside, inside[:7], traj.s[::-1], outside])

    @staticmethod
    def trajectories(dim):
        spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
        c = manifolds.constants(spec)
        local = np.random.default_rng(4)
        X0 = np.array([manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, local))
            for _ in range(3)])
        pert = TestStateStepControl.forced(dim)
        fld = kepler_field(1e-3, pert)
        fj = kepler_field_jacobian(1e-3, pert)
        trajs = {
            "plain": flow.integrate(fld, X0[0], c.S),
            "stack": flow.integrate(fld, X0, c.S),
            "variational": flow.integrate_with_variational(
                fj, X0[0], c.S)[0],
            "variational stack": flow.integrate_with_variational(
                fj, X0, c.S)[0],
        }
        # random states and coefficients on the same steps: the
        # interpolant jumps at every node, so a node read on the wrong
        # step shows
        traj = trajs["variational stack"]
        trajs["variational stack, random"] = flow.Trajectory(
            s=traj.s, states=local.normal(size=traj.states.shape),
            sol=local.normal(size=traj.sol.shape), nfev=0, dim=traj.dim)
        return trajs

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_scipy_bit_for_bit(self, dim):
        for name, traj in self.trajectories(dim).items():
            ref = self.reference(traj)
            pts = self.points(traj)
            got, want = traj.eval(pts), ref(pts)
            assert got.shape == want.shape == \
                (pts.size,) + traj.states.shape[1:-1] + (traj.dim,), name
            assert np.array_equal(got, want), name
            assert np.array_equal(traj.eval(list(pts[:5])), want[:5])
            for s in (pts[0], float(pts[1]), np.array(pts[2]), traj.s0,
                      traj.s_end, traj.s[len(traj.s) // 2], pts[-1], 0):
                assert np.array_equal(traj.eval(s), ref(s)), (name, s)
                assert traj.eval(s).shape == traj.states.shape[1:-1] + \
                    (traj.dim,), (name, s)
            assert traj.eval(pts[:0]).shape == (0,) + got.shape[1:]

    def test_scalar_is_one_point_array(self):
        """A scalar read is the one-point array read, bit for bit, with
        the point axis dropped."""
        for name, traj in self.trajectories(2).items():
            for s in self.points(traj):
                got = traj.eval(s)
                assert np.array_equal(got, traj.eval(np.array([s]))[0])
                assert got.shape == traj.states.shape[1:-1] + (traj.dim,)

    def test_zero_length_interval_has_no_dense_output(self):
        fld = lambda y: np.array([y[1], -y[0]])
        with pytest.raises(ValueError, match="nonzero length"):
            flow.integrate(fld, np.array([1.0, 0.0]), 0.0)
        ends = flow.integrate(fld, np.array([1.0, 0.0]), 0.0, dense=False)
        assert np.array_equal(ends.states[-1], [1.0, 0.0])

    def test_rejects_backward_interval(self):
        """Integration runs forward only: s_end < 0 is an error, also
        without dense output."""
        fld = lambda y: -y
        with pytest.raises(ValueError, match="forward"):
            flow.integrate(fld, np.ones(1), -1.0)
        with pytest.raises(ValueError, match="forward"):
            flow.integrate(fld, np.ones(1), -1.0, dense=False)
        with pytest.raises(ValueError, match="forward"):
            flow.integrate_with_variational(
                lambda X: (-X, -np.eye(1)), np.ones(1), -1.0)

    def test_two_dimensional_points_read_row_by_row(self):
        """A 2-D s reads as the stack of its rows, bit for bit."""
        for name, traj in self.trajectories(2).items():
            s = self.points(traj)[:48].reshape(6, 8)
            got = traj.eval(s)
            assert got.shape == (6, 8) + traj.states.shape[1:-1] + \
                (traj.dim,), name
            for i in range(6):
                assert np.array_equal(got[i], traj.eval(s[i])), (name, i)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_first_layout(self, dim, shape):
        """``eval`` returns the layout of ``states``: s of any shape
        reads np.shape(s) + states.shape[1:-1] + (dim,), ``rows`` of the
        shape of s reads np.shape(s) + (dim,), the full read's row of
        each point bit for bit, and at the nodes the read is ``states``
        to rounding."""
        local = np.random.default_rng(8)
        for name, traj in self.trajectories(dim).items():
            s = local.uniform(traj.s0, traj.s_end, shape)
            full = traj.eval(s)
            assert full.shape == np.shape(s) + traj.states.shape[1:-1] + \
                (traj.dim,), name
            if traj.states.ndim == 3:
                rows = local.integers(0, traj.states.shape[1], shape)
                got = traj.eval(s, rows=rows)
                assert got.shape == np.shape(s) + (traj.dim,), name
                pick = np.take_along_axis(
                    full, rows[..., None, None], axis=-2)[..., 0, :]
                assert np.array_equal(got, pick), name
            if "random" not in name:
                assert np.allclose(traj.eval(traj.s),
                                   traj.states[..., : traj.dim],
                                   rtol=1e-13, atol=1e-13), name


class TestVariational:
    def test_matches_closed_form_variation(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rng))
        _, M = flow.integrate_with_variational(
            kepler_field_jacobian(), X0, c.S)
        Y0 = manifolds.variation_start(spec, X0)
        got = M @ Y0
        expected = manifolds.closed_form_variation(spec, X0, c.S)
        assert np.allclose(got, expected, atol=1e-8)
        # each row of a stacked M, k = 1..3 in 2D and 3D, within 1e-10
        # relative (about 3e-12 measured)
        local = np.random.default_rng(9)
        for dim in (2, 3):
            for k in (1, 2, 3):
                spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
                c = manifolds.constants(spec)
                X0 = np.array([manifolds.seed_state(
                    spec, manifolds.random_seed_params(spec, local))
                    for _ in range(4)])
                _, M = flow.integrate_with_variational(
                    kepler_field_jacobian(), X0, c.S)
                for Mi, Xi in zip(M, X0):
                    expected = manifolds.closed_form_variation(spec, Xi, c.S)
                    got = Mi @ manifolds.variation_start(spec, Xi)
                    assert (np.linalg.norm(got - expected)
                            < 1e-10 * np.linalg.norm(expected)), (dim, k)

    def test_monodromy_on_closed_orbit(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rng))
        traj, M = flow.monodromy(kepler_field_jacobian(), X0, c.S)
        # the flow is volume preserving
        assert M.shape == (6, 6)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-6)
        # M maps the field at the start to the field at the end; the
        # trajectory runs in normalized time, sigma = 1 at s = S, and
        # holds the end points only
        assert traj.s_end == 1.0 and traj.sol is None
        f_end = model.reg_field(traj.states[-1, : traj.dim], 0.0, None)
        assert np.allclose(M @ model.reg_field(X0, 0.0), f_end, atol=1e-7)
        # the same row by row on a perturbed stack, M then (m, D, D)
        pert = TestStateStepControl.forced(2)
        X0s = np.array([X0, manifolds.seed_state(
            spec, manifolds.random_seed_params(
                spec, np.random.default_rng(3)))])
        traj, Ms = flow.monodromy(kepler_field_jacobian(1e-3, pert), X0s,
                                  c.S)
        assert Ms.shape == (2, 6, 6)
        f_end = model.reg_field(traj.states[-1, :, : traj.dim], 1e-3, pert)
        assert np.allclose(np.matvec(Ms, model.reg_field(X0s, 1e-3, pert)),
                           f_end, atol=1e-7)

    def test_fd_cross_check(self):
        """Variational columns match directional differences of the flow."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rng))
        S = 2.0
        _, M = flow.integrate_with_variational(
            kepler_field_jacobian(), X0, S)
        h = 1e-6
        for i in range(6):
            Xp, Xm = X0.copy(), X0.copy()
            Xp[i] += h
            Xm[i] -= h
            col = (flow.integrate(kepler_field(), Xp, S).eval(S)
                   - flow.integrate(kepler_field(), Xm, S).eval(S)) / (2 * h)
            assert np.allclose(M[:, i], col, atol=1e-5)


class TestStateStepControl:
    """A variational integration steps on its state columns alone."""

    @staticmethod
    def forced(dim):
        cos = [[0.3, 0.0]] if dim == 2 else [[0.3, 0.0, 0.0]]
        sin = [[0.0, 0.3]] if dim == 2 else [[0.0, 0.3, 0.0]]
        return model.Perturbation(T, np.zeros(dim), cos, sin)

    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_state_follows_plain_integration(self, dim, stack):
        """The state rows end within 1e-12 of a plain integration's and
        take its steps, give or take one (the initial step is still
        chosen from every column)."""
        local = np.random.default_rng(8)
        spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = np.array([manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, local))
            for _ in range(3)])
        X0 = X0 if stack else X0[0]
        pert = self.forced(dim)
        plain = flow.integrate(kepler_field(1e-3, pert), X0, c.S)
        traj, _ = flow.integrate_with_variational(
            kepler_field_jacobian(1e-3, pert), X0, c.S)
        assert np.max(np.abs(traj.states[-1, ..., : traj.dim]
                             - plain.states[-1])) < 1e-12
        assert abs(traj.n_steps - plain.n_steps) <= 1


class TestFirstStep:
    """An integration started at an earlier one's settled step passes
    the same error test on every step, from a first step that needs no
    ramp."""

    @pytest.mark.parametrize("variational", [False, True],
                             ids=["plain", "variational"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_warm_start_matches_cold(self, dim, variational):
        """A stack of four segment starts of a perturbed orbit over
        S/4: started at the largest step the cold run accepted, it ends
        within 1e-12 of the cold run and takes no more steps."""
        local = np.random.default_rng(30 + dim)
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = np.array([manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, local))
            for _ in range(4)])
        pert = TestStateStepControl.forced(dim)

        def run(first_step):
            if variational:
                return flow.integrate_with_variational(
                    kepler_field_jacobian(1e-3, pert), X0, c.S / 4,
                    first_step=first_step)[0]
            return flow.integrate(kepler_field(1e-3, pert), X0, c.S / 4,
                                  first_step=first_step)

        cold = run(None)
        # the largest accepted step lies past the start-up ramp
        settled = np.max(np.diff(cold.s))
        assert settled > 10 * cold.s[1]
        warm = run(settled)
        assert warm.s[1] == settled
        assert np.max(np.abs(warm.states[-1, ..., : warm.dim]
                             - cold.states[-1, ..., : cold.dim])) < 1e-12
        assert warm.n_steps <= cold.n_steps
        assert warm.nfev < cold.nfev


class TestEvents:
    def _rectilinear(self, k=1, dim=2):
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.rectilinear_seed_params(spec))
        return spec, c, flow.integrate(kepler_field(), X0, c.S)

    def test_rectilinear_collisions(self):
        """Starting at rest, z ~ cos(omega s): zeros at odd multiples of
        pi / (2 omega), in 2D and, on the default Levi-Civita plane, in
        3D."""
        for dim, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
            spec, c, traj = self._rectilinear(k, dim)
            got = flow.detect_events(traj)
            expected = [(np.pi / 2 + j * np.pi) / c.omega for j in range(2 * k)]
            assert len(got) == len(expected)
            assert np.allclose(got, expected, atol=1e-8)
            for s in got:
                z, _, _, _ = model.unpack_state(traj.eval(s))
                assert np.dot(z, z) < 1e-16

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_collisions_strictly_ascending(self, k, dim):
        """detect_events returns the collision s as a 1-D float array in
        strictly ascending order, unsorted: its brackets are disjoint
        and in grid order."""
        _, _, traj = self._rectilinear(k, dim)
        got = flow.detect_events(traj)
        assert got.ndim == 1 and got.dtype == float and got.size == 2 * k
        assert np.all(np.diff(got) > 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_collision_of_k3_at_shifted_origins(self, dim):
        """All 2k collisions of k = 3, refined in one call, for several
        time origins, and from a start further along the orbit, which
        takes another step sequence."""
        spec = manifolds.ManifoldSpec(k=3, T=T, dim=dim)
        c = manifolds.constants(spec)
        expected = np.array([(np.pi / 2 + j * np.pi) / c.omega
                             for j in range(6)])
        shift = 0.3 * np.pi / c.omega       # before the first collision
        for t0 in (0.0, 1.3, 4.1):
            X0 = manifolds.seed_state(
                spec, manifolds.rectilinear_seed_params(spec, t0=t0))
            for s0 in (0.0, shift):
                traj = flow.integrate(
                    kepler_field(),
                    manifolds.closed_form_flow(spec, X0, s0), c.S)
                got = flow.detect_events(traj)
                assert np.allclose(got, expected - s0, rtol=0.0,
                                   atol=1e-8)

    def test_circular_orbit_has_no_collisions(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.circular_seed_params(spec))
        traj = flow.integrate(kepler_field(), X0, c.S)
        assert flow.detect_events(traj).size == 0

    def test_events_stable_under_a_shifted_start(self):
        """The collisions of an integration from a start further along
        the orbit, on another step sequence, are the same to 1e-9."""
        spec, c, traj = self._rectilinear()
        ref = flow.detect_events(traj)
        shift = 0.3 * np.pi / c.omega       # before the first collision
        X1 = manifolds.closed_form_flow(spec, traj.eval(0.0), shift)
        traj2 = flow.integrate(kepler_field(), X1, c.S)
        got = flow.detect_events(traj2) + shift
        assert len(got) == len(ref)
        assert np.allclose(ref, got, atol=1e-9)


class TestInvariantsAndExport:
    def test_invariant_report_unperturbed(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        traj = flow.integrate(kepler_field(), X0, c.S)
        rep = flow.invariant_report(traj, 0.0, None)
        assert rep["k_drift"] < 1e-10
        assert rep["tau_drift"] < 1e-10

    def test_invariant_report_3d(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        traj = flow.integrate(kepler_field(), X0, c.S)
        rep = flow.invariant_report(traj, 0.0, None)
        assert rep["k_drift"] < 1e-10
        assert rep["bl_drift"] < 1e-10

    def test_csv_export(self, tmp_path):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec,
                                  manifolds.circular_seed_params(spec))
        traj = flow.integrate(kepler_field(), X0, 1.0)
        path = tmp_path / "traj.csv"
        flow.trajectory_to_csv(traj, path, 0.0, None,
                               header_lines=["sample = 1"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# sample = 1"
        assert lines[1] == "s,z0,z1,w0,w1,t,tau,K"
        assert len(lines) == 2 + len(traj.s)
        # K column stays at 0 on the zero level set
        for line in lines[2:]:
            assert abs(float(line.split(",")[-1])) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_csv_matches_row_writer(self, tmp_path, dim):
        """The same bytes as the per-value writer it replaced, NaN,
        infinities and signed zeros included."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        traj = flow.integrate(kepler_field(), X0, 1.0)
        traj.states = traj.states.copy()
        traj.states[1, 0] = np.nan
        traj.states[2, 1] = -np.inf
        traj.states[3, :2] = -0.0
        flow.trajectory_to_csv(traj, tmp_path / "got", 0.0, None,
                               header_lines=["a = 1"])
        states = traj.states[:, : traj.dim]
        values = [traj.s, states, model.reg_energy(states, 0.0, None)]
        if dim == 3:
            values.append(model.bl_value(states))
        want = (tmp_path / "got").read_text().splitlines()[:2]
        want += [",".join(f"{x:.16e}" for x in row)
                 for row in np.column_stack(values)]
        got = (tmp_path / "got").read_bytes()
        assert got == ("\n".join(want) + "\n").encode()
        assert b",nan," in got and b",-inf," in got


# Public names that nothing reachable from cli.main, the module-level code
# of src/kepreg or bench calls, each kept for the oracle or acceptance
# criterion it serves.
UNCALLED_PUBLIC = {
    "algebra.lc_map": "Levi-Civita identities: the planar change of "
                      "variables u = z^2, v = w / (2 conj z)",
    "algebra.lc_position": "Levi-Civita identities: |u| = |z|^2",
    "algebra.ks_map": "criterion 7, KS identities: |KS(z)| = |z|^2",
    "algebra.ks_gradient_transport": "criterion 7, KS identities: "
                                     "gradient transport",
    "algebra.lc_plane_check": "Levi-Civita identities: Re(conj(v1) i v2) "
                              "= 0 on the planes of lc_plane_basis",
    "algebra.quat_mul": "quaternion product of the oracles "
                        "ks_gradient_transport and lc_plane_check",
    "algebra.quat_conj": "quaternion conjugate of the oracle "
                         "lc_plane_check",
    "algebra.pure": "pure quaternion of the oracle ks_gradient_transport",
    "manifolds.closed_form_variation": "closed-form oracle of "
                                       "flow.monodromy, of "
                                       "closed_form_jacobian and of the "
                                       "composed shooting monodromy",
    "manifolds.closed_form_time": "analytic t(s) of the oracle "
                                  "closed_form_variation",
    "manifolds.circular_seed_params": "collisionless oracle orbit of the "
                                      "flow, shooting and reconstruct tests",
}


def _references(node, skip):
    """(name, through an attribute) of every name, attribute and import
    under node, outside the subtrees in skip."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name):
            found.add((n.id, False))
        elif isinstance(n, ast.Attribute):
            found.add((n.attr, True))
        elif isinstance(n, ast.alias):
            found.add((n.name, False))
        todo.extend(ast.iter_child_nodes(n))
    return found


def test_every_public_name_has_a_caller():
    """Every public top-level function and class of kepreg, and every
    public method of a public class, is reachable from cli.main, the
    module-level code of src/kepreg or bench, or is listed in
    UNCALLED_PUBLIC with the oracle it serves.  A definition is reached
    when reached code refers to it, and then its own code is reached: a
    function or class through any reference, a method only through an
    attribute (obj.name), as a local variable of its name does not call
    it.  A class's code is its body without its methods, but with its
    __dunder__ methods, which Python calls for it."""
    root = Path(__file__).resolve().parents[1]
    code = [(ast.parse(path.read_text()), set())     # (node, skip)
            for path in sorted((root / "bench").glob("*.py"))]
    defs = {}       # "module.name" -> (node, method, its methods)
    for path in sorted((root / "src" / "kepreg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                code.append((node, set()))
                continue
            methods = set()
            if isinstance(node, ast.ClassDef):
                methods = {m for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")}
            defs[f"{path.stem}.{node.name}"] = (node, False, methods)
            defs |= {f"{path.stem}.{node.name}.{m.name}": (m, True, set())
                     for m in methods}
    code.append((defs["cli.main"][0], set()))
    refs, reached = set(), set()
    while code:
        for node, skip in code:
            refs |= _references(node, skip)
        code = []
        for key, (node, method, methods) in defs.items():
            if key not in reached and ((node.name, True) in refs or (
                    not method and (node.name, False) in refs)):
                reached.add(key)
                code.append((node, methods))
    uncalled = {key for key in set(defs) - reached
                if not any(part.startswith("_")
                           for part in key.split(".")[1:])}
    assert uncalled == set(UNCALLED_PUBLIC)


# Every settable value of src/kepreg: a parameter with a default, as
# "module.function(parameter)" (methods as Class.method, nested functions
# under their enclosing one), or a field with a default of a dataclass,
# as "module.Class.field".  Adding or removing one changes this set in
# the same diff.
SETTABLE = {
    "_solvers.DOP853.__init__(first_step)",
    "_solvers.DOP853.__init__(mask)",
    "averaging._kepler_force(lam)",
    "cli.main(argv)",
    "flow.FlowError.__init__(last_s)",
    "flow.FlowError.__init__(last_state)",
    "flow.Trajectory.eval(rows)",
    "flow._bracketed_roots(rtol)",
    "flow.integrate(dense)",
    "flow.integrate(first_step)",
    "flow.integrate_with_variational(dense)",
    "flow.integrate_with_variational(first_step)",
    "manifolds.ManifoldSpec.dim",
    "manifolds.SeedParams.phi1",
    "manifolds.SeedParams.phi2",
    "manifolds.SeedParams.plane",
    "manifolds.SeedParams.psi",
    "manifolds.SeedParams.t0",
    "manifolds.rectilinear_seed_params(plane)",
    "manifolds.rectilinear_seed_params(t0)",
    "model.Perturbation.__init__(cos)",
    "model.Perturbation.__init__(name)",
    "model.Perturbation.__init__(sin)",
    "model.reg_energy_gradient(pert)",
    "model.reg_field(pert)",
    "model.reg_field_jacobian(pert)",
    "shooting.PeriodicOrbit.dim",
    "shooting.PeriodicOrbit.k",
    "shooting.PeriodicOrbit.pert_name",
    "shooting.PeriodicOrbit.theta",
    "shooting.PeriodicOrbit.unknowns",
    "shooting.ShootingError.__init__(best_residual)",
    "shooting.ShootingError.__init__(best_unknowns)",
    "shooting._finish(J)",
    "shooting._integrate_segments(variational)",
    "shooting._strong_sweep(first)",
    "shooting.pack_unknowns(theta)",
    "shooting.seed_unknowns(theta)",
}


def _settable(module, node, prefix=""):
    """The settable values of the definitions under node."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            name = f"{module}.{prefix}{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs,
                                               args.kw_defaults)
                             if d is not None]
            found |= {f"{name}({a.arg})" for a in with_default}
            found |= _settable(module, child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            if any("dataclass" in ast.unparse(d)
                   for d in child.decorator_list):
                found |= {f"{module}.{child.name}.{st.target.id}"
                          for st in child.body
                          if isinstance(st, ast.AnnAssign)
                          and st.value is not None}
            found |= _settable(module, child, f"{prefix}{child.name}.")
        else:
            found |= _settable(module, child, prefix)
    return found


def test_settable_values_are_listed():
    """The settable values of src/kepreg are SETTABLE, no more, no
    fewer."""
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted((root / "src" / "kepreg").glob("*.py")):
        found |= _settable(path.stem, ast.parse(path.read_text()))
    assert found == SETTABLE


def test_private_attributes_are_set_on_self_alone():
    """No module of src/kepreg assigns to a _private attribute of any
    name but self: a private attribute is set by its own object's
    methods, never threaded in from outside."""
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted((root / "src" / "kepreg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and node.attr.startswith("_")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.add(f"{path.name}:{node.lineno}")
    assert found == set()
