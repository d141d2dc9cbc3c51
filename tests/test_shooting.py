import dataclasses
import json

import numpy as np
import pytest

from kepreg import flow, manifolds, model, shooting

T = 2.0 * np.pi
EPS = 1e-3


def forcing_pert(dim):
    if dim == 2:
        return model.Perturbation(T, np.zeros(2), [[0.3, 0.0]],
                                  [[0.0, 0.3]])
    # same forcing placed in the physical plane reached by the default
    # Levi-Civita plane embedding (first and third components)
    return model.Perturbation(T, np.zeros(3), [[0.3, 0.0, 0.0]],
                              [[0.0, 0.0, 0.3]])


def fixture_seed(spec):
    """Seed state on M_k of the family2d (2D) and orbit3d (3D) fixtures."""
    if spec.dim == 2:
        params = manifolds.random_seed_params(spec, np.random.default_rng(5))
    else:
        params = manifolds.SeedParams(psi=0.9, phi1=0.4, phi2=1.3, t0=0.2)
    return manifolds.seed_state(spec, params)


@pytest.fixture(scope="module")
def family2d():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(2), fixture_seed(spec),
        [EPS / 4, EPS / 2, EPS])
    assert diags == []
    return spec, family


@pytest.fixture(scope="module")
def orbit3d():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(3), fixture_seed(spec), [EPS / 4])
    assert diags == []
    return spec, family[-1]


@pytest.fixture(scope="module")
def orbit3d_eps():
    """The orbit3d seed continued to eps = EPS."""
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(3), fixture_seed(spec), [EPS / 4, EPS])
    assert diags == []
    return family[-1]


def lookahead_problem():
    """The 2D k = 1 problem at EPS of the look-ahead tests, with its
    seed unknowns; its solve takes six outer iterations."""
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
    X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
        spec, np.random.default_rng(2)))
    problem = shooting.ShootingProblem(
        spec=spec, eps=EPS, pert=forcing_pert(2), X_ref=X0)
    return problem, shooting.seed_unknowns(problem, X0)


def dense_jacobian(problem, jac):
    """The (n_res, n_unknowns) matrix of a ShootingJacobian's blocks."""
    D, m = problem.D, problem.m
    iS = m * D
    J = np.zeros((iS + len(jac.x0_rows), iS + 1 + jac.dtheta.shape[1]))
    for j in range(m):
        J[j * D:(j + 1) * D, j * D:(j + 1) * D] = jac.segments[j]
        if j + 1 < m:
            J[j * D:(j + 1) * D, (j + 1) * D:(j + 2) * D] = -np.eye(D)
    J[iS - D:iS, :D] -= jac.rotation
    J[:iS, iS] = jac.dS.ravel()
    J[iS - D:iS, iS + 1:] = jac.dtheta
    J[iS:, :D] = jac.x0_rows
    return J


def seed_at_theta(problem, X0, theta):
    """seed_unknowns with its 3D phase repacked as theta (a 2D problem
    has none)."""
    states, S, _ = shooting.unpack_unknowns(
        problem, shooting.seed_unknowns(problem, X0))
    return shooting.pack_unknowns(problem, states, S, theta)


class TestResidual:
    def test_zero_at_unperturbed_seed(self):
        """The closed-form seed zeroes the eps = 0 residual: the stacked
        segment integration agrees with the closed form."""
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            rng = np.random.default_rng(1)
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=0.0, pert=model.zero_perturbation(T, dim),
                X_ref=X0)
            u = shooting.seed_unknowns(problem, X0)
            res = shooting.residual(problem, u)
            assert np.linalg.norm(res) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_seed_unknowns_is_closed_form(self, monkeypatch, dim):
        """seed_unknowns makes no integration: its segment starts equal
        closed_form_flow at jS/m bit for bit, S = S_k and theta = 0
        packed after them."""
        spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(7)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)

        def no_integration(*args, **kwargs):
            raise AssertionError("seed_unknowns integrated")

        monkeypatch.setattr(flow, "integrate", no_integration)
        monkeypatch.setattr(flow, "integrate_with_variational",
                            no_integration)
        u = shooting.seed_unknowns(problem, X0)
        states, S, theta = shooting.unpack_unknowns(problem, u)
        m = problem.m
        expected = [manifolds.closed_form_flow(X0, j * c.S / m)
                    for j in range(m)]
        assert np.array_equal(states, expected)
        assert np.array_equal(states[0], X0)
        assert S == c.S
        assert theta == 0.0
        assert np.array_equal(u, shooting.pack_unknowns(problem, expected,
                                                        c.S, 0.0))

    def test_default_segments(self):
        spec = manifolds.ManifoldSpec(k=3, T=T, dim=2)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 2),
            X_ref=np.zeros(6))
        assert problem.m == 144

    def test_pack_unpack_roundtrip(self):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 3),
            X_ref=np.zeros(10))
        states = np.arange(problem.m * 10.0).reshape(problem.m, 10)
        u = shooting.pack_unknowns(problem, states, 9.5, 0.3)
        s2, S2, th2 = shooting.unpack_unknowns(problem, u)
        assert np.allclose(s2, states)
        assert S2 == 9.5
        assert th2 == 0.3

    def test_jacobian_matches_directional_differences(self):
        """Every column, in 3D the theta column and the BL row too,
        against central differences of the residual."""
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            rng = np.random.default_rng(2)
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
            u = seed_at_theta(problem, X0, 0.2)
            res, jac = shooting.residual_and_jacobian(problem, u)
            J = dense_jacobian(problem, jac)
            assert np.allclose(res, shooting.residual(problem, u),
                               atol=1e-12)
            h = 1e-6
            for i in range(u.size):
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                col = (shooting.residual(problem, up)
                       - shooting.residual(problem, um)) / (2 * h)
                scale = max(1.0, np.linalg.norm(J[:, i]))
                assert np.linalg.norm(J[:, i] - col) < 1e-5 * scale, \
                    f"dim {dim} column {i}"


def per_segment_reference(problem, u):
    """Segment defects, blocks M_j and S-column of the shooting Jacobian,
    from one single-state variational integration per segment."""
    states, S, theta = shooting.unpack_unknowns(problem, u)
    ends, Ms = [], []
    for X in states:
        traj, M = flow.integrate_with_variational(
            problem.field_jacobian, X, S / problem.m)
        ends.append(traj.states[-1, : problem.D])
        Ms.append(M)
    targets = list(states[1:]) + [shooting._rotation(problem, theta)
                                  @ states[0] + problem.time_shift()]
    defects = np.concatenate([e - t for e, t in zip(ends, targets)])
    dS = np.concatenate([problem.field(e) / problem.m for e in ends])
    return defects, Ms, dS


class TestCondensed:
    """The condensed system is the full linear model with the interior
    starts eliminated."""

    # Both sides sum the same O(1) products in another order.
    TOL = 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_expansion_satisfies_the_full_model(self, dim):
        """A random (dX0, dS[, dtheta]) expanded through the elimination
        zeroes the matching rows of J du + r, under the Jacobian the
        directional-difference test checks, and leaves the condensed
        model in the closure, energy, (3D) BL and phase rows."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(2)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
        u = shooting.seed_unknowns(problem, X0)
        res, jac = shooting.residual_and_jacobian(problem, u)
        J = dense_jacobian(problem, jac)
        cres, matrix = shooting._condense(problem, res, jac)
        assert matrix.shape == ((8, 7) if dim == 2 else (14, 12))
        n_match = (problem.m - 1) * problem.D
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = rng.normal(size=matrix.shape[1])
            for offset in (1.0, 0.0):
                du = shooting._expand(problem, jac, offset * res, v)
                rows = shooting._condensed_rows(problem, jac, offset * res,
                                                v)
                model_rows = J @ du[0] + offset * res
                scale = np.linalg.norm(J @ du[0]) + np.linalg.norm(res)
                assert np.linalg.norm(model_rows[:n_match]) < self.TOL * scale
                for got in (rows[0], matrix @ v + offset * cres):
                    assert np.linalg.norm(model_rows[n_match:] - got) \
                        < self.TOL * scale

    @pytest.mark.parametrize("dim, weak", [(2, 3), (3, 5)])
    def test_weak_count_at_the_seed(self, dim, weak):
        """At the eps = EPS seed the condensed Jacobian has the weak
        count of the full one: 3 in 2D and 5 in 3D."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(2)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
        res, jac = shooting.residual_and_jacobian(
            problem, shooting.seed_unknowns(problem, X0))
        sv = np.linalg.svd(shooting._condense(problem, res, jac)[1],
                           compute_uv=False)
        assert np.sum(sv <= shooting.WEAK_CUTOFF * sv[0]) == weak


def recursive_starts(problem, jac, res, v):
    """The segment start moves dx_0 .. dx_m of the recursion
    dx_{j+1} = r_j + M_j dx_j + F_j dS from dx_0 = dX0 over every
    segment, one segment at a time, for one residual row res and one
    condensed step v."""
    D, m = problem.D, problem.m
    dx = [v[:D]]
    for j in range(m):
        dx.append(jac.segments[j] @ dx[j] + res[j * D:(j + 1) * D]
                  + v[D] * jac.dS[j])
    return dx


def recursive_model(problem, jac, res, v):
    """The condensed linear model segment by segment: the full steps du
    and the rows left of J du + r for one residual row res and one
    condensed step v, from ``recursive_starts``."""
    D, m = problem.D, problem.m
    dx = recursive_starts(problem, jac, res, v)
    closure = dx[m] - jac.rotation @ v[:D] + jac.dtheta @ v[D + 1:]
    rows = np.concatenate([closure, res[m * D:] + jac.x0_rows @ v[:D]])
    return np.concatenate(dx[:m] + [v[D:]]), rows


class TestComposedProducts:
    """The propagation through the scan of a ShootingJacobian, composed
    once, gives the segment starts, rows and steps of the recursion
    over the segments."""

    # Both sides sum the same products of O(1) matrices in another order.
    TOL = 1e-12

    @staticmethod
    def jacobian(dim, k):
        """The Jacobian at the EPS seed unknowns of a k family, m
        segments as SEGMENTS_PER_K sets them."""
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(20 + k)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
        res, jac = shooting.residual_and_jacobian(
            problem, seed_at_theta(problem, X0, 0.3))
        return problem, res, jac

    def check_against_recursion(self, problem, res, jac, rng):
        """Batches of random residuals and condensed steps (both of
        several rows), a single row of either shared with a batch of the
        other, the solve's own residual and a zero residual: every row
        of ``_propagate``, ``_condensed_rows`` and ``_expand`` matches
        the recursion within TOL relative."""
        n_v = problem.D + 1 + jac.dtheta.shape[1]
        batch_r = rng.normal(size=(4, res.size)) * 1e-3
        batch_v = rng.normal(size=(4, n_v))
        cases = [(batch_r, batch_v), (res, batch_v), (batch_r, batch_v[0]),
                 (np.zeros(res.size), batch_v), (res, np.zeros(n_v))]
        for res_rows, v_rows in cases:
            R, V = np.atleast_2d(res_rows), np.atleast_2d(v_rows)
            dx = shooting._propagate(jac, R, V)
            du = shooting._expand(problem, jac, res_rows, v_rows)
            rows = shooting._condensed_rows(problem, jac, res_rows, v_rows)
            n = max(len(R), len(V))
            assert dx.shape == (problem.m + 1, problem.D, n)
            assert du.shape[0] == rows.shape[0] == n
            R = np.broadcast_to(R, (n, R.shape[1]))
            V = np.broadcast_to(V, (n, V.shape[1]))
            for i in range(n):
                want_dx = np.array(recursive_starts(problem, jac, R[i],
                                                    V[i]))
                want_du, want_rows = recursive_model(problem, jac, R[i],
                                                     V[i])
                for got, want in ((dx[..., i], want_dx), (du[i], want_du),
                                  (rows[i], want_rows)):
                    assert np.linalg.norm(got - want) \
                        <= self.TOL * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_and_steps_match_the_recursion(self, dim, k):
        """At m = 48k."""
        problem, res, jac = self.jacobian(dim, k)
        assert problem.m == 48 * k
        self.check_against_recursion(problem, res, jac,
                                     np.random.default_rng(dim + 10 * k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_few_segments_match_the_recursion(self, monkeypatch, dim, k):
        """At m = k, 1 to 3 segments: the shortest scans, of one and two
        levels, where a level's span reaches half the starts or more."""
        monkeypatch.setattr(shooting, "SEGMENTS_PER_K", 1)
        problem, res, jac = self.jacobian(dim, k)
        assert problem.m == k
        assert len(jac.scan) - 1 == k.bit_length()
        self.check_against_recursion(problem, res, jac,
                                     np.random.default_rng(dim + 10 * k))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_monodromy_is_the_sequential_product(self, dim, family2d,
                                                 orbit3d_eps):
        """A solved orbit's monodromy, the scan's last product, equals
        M_{m-1} ... M_0 multiplied one segment at a time."""
        orbit = family2d[1][-1] if dim == 2 else orbit3d_eps
        spec = manifolds.ManifoldSpec(k=orbit.k, T=T, dim=dim)
        problem = shooting.ShootingProblem(
            spec=spec, eps=orbit.eps, pert=forcing_pert(dim), X_ref=orbit.X0)
        _, jac = shooting.residual_and_jacobian(problem, orbit.unknowns)
        M = np.eye(problem.D)
        for Mj in jac.segments:
            M = Mj @ M
        assert np.linalg.norm(orbit.monodromy - M) \
            <= self.TOL * np.linalg.norm(M)


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
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
            u = seed_at_theta(problem, X0, 0.1)
            u[: -2] += 1e-4 * rng.normal(size=u.size - 2)
            res, jac = shooting.residual_and_jacobian(problem, u)
            defects, Ms, dS = per_segment_reference(problem, u)
            iS = problem.m * problem.D
            assert np.allclose(res[:iS], defects, rtol=0, atol=self.TOL)
            assert np.allclose(shooting.residual(problem, u)[:iS], defects,
                               rtol=0, atol=self.TOL)
            assert np.allclose(jac.dS.ravel(), dS, rtol=0, atol=self.TOL)
            assert np.allclose(jac.segments, Ms, rtol=0, atol=self.TOL)


    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_residual_matches_rows(self, dim):
        """A heterogeneous batch (rows with different S, and the probes
        along the weak directions that solve takes) gives each row's own
        residual within 1e-10, though all rows share one normalized-time
        step sequence."""
        rng = np.random.default_rng(4)
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X0 = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rng))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(dim), X_ref=X0)
        u = seed_at_theta(problem, X0, 0.05)
        iS = problem.m * problem.D
        rows = [u]
        for dS in (-0.3, 0.2):
            v = u.copy()
            v[iS] += dS
            rows.append(v)
        # the probes of solve's first reduced step: the weak condensed
        # directions at the end of the first strong sweep, expanded to
        # unit steps of the full unknowns
        swept, res, jac, _, (_, sv, Vt) = shooting._strong_sweep(
            problem, u, *shooting.residual_and_jacobian(problem, u))
        weak = shooting._expand(
            problem, jac, np.zeros(res.size),
            Vt[sv <= shooting.WEAK_CUTOFF * sv[0]])
        assert len(weak) > 0
        weak /= np.linalg.norm(weak, axis=1)[:, None]
        rows.extend(np.vstack([swept + 1e-2 * weak, swept - 1e-2 * weak]))
        batch = np.array(rows)
        got = shooting.residual(problem, batch)
        assert got.shape == (len(batch), res.size)
        for row, r in zip(batch, got):
            assert np.max(np.abs(r - shooting.residual(problem, row))) < 1e-10


class TestTypedFailures:
    def test_nonfinite_jacobian_becomes_shooting_error(self, monkeypatch):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        real = shooting.residual_and_jacobian

        def nan_jacobian(problem, unknowns):
            res, jac = real(problem, unknowns)
            jac.segments[0, 0, 0] = np.nan
            return res, jac

        monkeypatch.setattr(shooting, "residual_and_jacobian", nan_jacobian)
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(2), X_ref=X0)
        u = shooting.seed_unknowns(problem, X0)
        with pytest.raises(shooting.ShootingError, match="SVD") as info:
            shooting.solve(problem, u)
        assert info.value.best_unknowns is not None
        # continuation halves eps, then reports the failure instead of
        # raising it
        monkeypatch.setattr(shooting, "EPS_STEP_FLOOR", EPS / 2)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS])
        assert family == []
        assert [d["eps"] for d in diags] == [EPS / 2]
        assert "SVD" in diags[0]["error"]

    def test_flow_error_ends_continuation(self, monkeypatch):
        """A FlowError from solve ends the continuation at the eps it was
        tried at: one solve attempt and no halving."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        tried = []

        def fail(problem, unknowns0):
            tried.append(problem.eps)
            raise flow.FlowError("synthetic integrator failure")

        monkeypatch.setattr(shooting, "solve", fail)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS / 4, EPS])
        assert tried == [EPS / 4]
        assert family == []
        assert diags == [{"eps": EPS / 4,
                          "error": "synthetic integrator failure"}]

    def test_flow_error_in_newton_trial_ends_continuation(self, monkeypatch):
        """A FlowError from a Newton trial, after the seed's integration
        succeeded, ends the continuation as one from the seed does."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        real_rj, real_solve = shooting.residual_and_jacobian, shooting.solve
        calls, tried = [], []

        def fail_second(problem, unknowns):
            calls.append(problem.eps)
            if len(calls) == 2:         # the first sweep's full-step trial
                raise flow.FlowError("synthetic trial failure")
            return real_rj(problem, unknowns)

        def spy_solve(problem, unknowns0):
            tried.append(problem.eps)
            return real_solve(problem, unknowns0)

        monkeypatch.setattr(shooting, "residual_and_jacobian", fail_second)
        monkeypatch.setattr(shooting, "solve", spy_solve)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS / 4, EPS])
        assert calls == [EPS / 4, EPS / 4]
        assert tried == [EPS / 4]
        assert family == []
        assert diags == [{"eps": EPS / 4, "error": "synthetic trial failure"}]

    @pytest.mark.parametrize("error", [shooting.ShootingError,
                                       flow.FlowError])
    def test_final_unperturbed_failure_is_reported(self, monkeypatch, error):
        """A failure of the closing eps = 0 solve leaves the partial
        family and a diagnostic instead of escaping."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        real = shooting.solve

        def fail_unperturbed(problem, unknowns0, **kwargs):
            if problem.eps == 0.0:
                raise error("synthetic failure at eps = 0")
            return real(problem, unknowns0, **kwargs)

        monkeypatch.setattr(shooting, "solve", fail_unperturbed)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS / 4, 0.0])
        assert [o.eps for o in family] == [EPS / 4]
        assert diags == [{"eps": 0.0,
                          "error": "synthetic failure at eps = 0"}]

    def test_lower_target_is_solved_once(self, monkeypatch):
        """A target below the current eps gets one solve from the current
        orbit: it joins the family, or its failure ends the continuation
        with a diagnostic, with no halving."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS / 2, EPS / 4])
        assert [o.eps for o in family] == [EPS / 2, EPS / 4]
        assert diags == []
        assert all(o.residual_norm < shooting.RESIDUAL_TOL for o in family)

        real, tried = shooting.solve, []

        def fail_lower(problem, unknowns0):
            tried.append(problem.eps)
            if problem.eps < EPS / 2:
                raise shooting.ShootingError("synthetic lower failure")
            return real(problem, unknowns0)

        monkeypatch.setattr(shooting, "solve", fail_lower)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X0, [EPS / 2, EPS / 4, EPS])
        assert tried == [EPS / 2, EPS / 4]
        assert [o.eps for o in family] == [EPS / 2]
        assert diags == [{"eps": EPS / 4, "error": "synthetic lower failure"}]


    def test_halved_success_retries_the_full_target(self, monkeypatch):
        """After a failed target t and a success at the halved eps, the
        continuation tries t again, from the halved orbit's unknowns; the
        family keeps the orbit at t alone, with t's schedule float."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        target = EPS / 4
        real, calls = shooting.solve, []

        def fail_first(problem, unknowns0):
            orbit = None
            if calls:
                orbit = real(problem, unknowns0)
            calls.append((problem.eps, np.array(unknowns0), orbit))
            if orbit is None:
                raise shooting.ShootingError("synthetic first failure")
            return orbit

        monkeypatch.setattr(shooting, "solve", fail_first)
        family, diags = shooting.continue_in_epsilon(spec, forcing_pert(2),
                                                     X0, [target])
        assert [eps for eps, _, _ in calls] == [target, 0.0 + target / 2.0,
                                                target]
        halved = calls[1][2]
        assert np.array_equal(calls[2][1], halved.unknowns)
        assert len(family) == 1 and family[0] is calls[2][2]
        assert type(family[0].eps) is float and family[0].eps == target
        assert diags == []

class TestSolveExits:
    """The ShootingErrors of solve's reduced step and of its last round,
    each with the best sweep iterate, on the look-ahead problem, which
    needs six rounds: its seed's residual is above RESIDUAL_TOL and its
    condensed Jacobian has weak directions."""

    @staticmethod
    def spied_sweeps(monkeypatch):
        """The (unknowns, residual) each strong sweep returns."""
        real, swept = shooting._strong_sweep, []

        def sweep(*args):
            out = real(*args)
            swept.append((out[0], out[1]))
            return out

        monkeypatch.setattr(shooting, "_strong_sweep", sweep)
        return swept

    def test_rejected_searches_collapse_the_reduced_step(self, monkeypatch):
        """A line search that rejects every trial ends the strong sweep
        at its start, and then the reduced step, as a collapse."""
        problem, u0 = lookahead_problem()
        searches = []

        def reject(problem, u, step, better):
            searches.append(np.array(u))
            return None

        monkeypatch.setattr(shooting, "_line_search", reject)
        rnorm = float(np.linalg.norm(shooting.residual(problem, u0)))
        with pytest.raises(shooting.ShootingError,
                           match=f"reduced Newton step collapsed at "
                                 f"residual {rnorm:.3e}") as info:
            shooting.solve(problem, u0)
        assert len(searches) == 2       # the sweep's, then the reduced
        assert all(np.array_equal(u, u0) for u in searches)
        assert np.array_equal(info.value.best_unknowns, u0)
        assert info.value.best_residual == rnorm

    def test_failed_reduced_lstsq_is_a_shooting_error(self, monkeypatch):
        """A LinAlgError of the reduced least-squares solve becomes a
        ShootingError caused by it."""
        problem, u0 = lookahead_problem()
        swept = self.spied_sweeps(monkeypatch)

        def lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic SVD failure")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        with pytest.raises(shooting.ShootingError,
                           match="SVD of the reduced Jacobian failed at "
                                 "residual .*: synthetic SVD failure") as info:
            shooting.solve(problem, u0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        (u, res), = swept
        assert np.array_equal(info.value.best_unknowns, u)
        assert info.value.best_residual == float(np.linalg.norm(res))

    def test_max_outer_rounds_without_convergence(self, monkeypatch):
        """With MAX_OUTER = 1 and a reduced step that hands back the
        seed, which has not converged, the last round's residual is
        reported with the sweep's better iterate."""
        problem, u0 = lookahead_problem()
        res0, jac0 = shooting.residual_and_jacobian(problem, u0)
        swept = self.spied_sweeps(monkeypatch)
        real_ls = shooting._line_search

        def back_to_seed(problem, u, step, better):
            if len(swept) == 0:         # inside the first sweep
                return real_ls(problem, u, step, better)
            return u0, res0, jac0

        monkeypatch.setattr(shooting, "_line_search", back_to_seed)
        monkeypatch.setattr(shooting, "MAX_OUTER", 1)
        rnorm = float(np.linalg.norm(res0))
        assert rnorm >= shooting.RESIDUAL_TOL
        with pytest.raises(shooting.ShootingError,
                           match=f"no convergence in 1 outer iterations "
                                 f"\\(residual {rnorm:.3e}\\)") as info:
            shooting.solve(problem, u0)
        (u, res), = swept
        assert np.array_equal(info.value.best_unknowns, u)
        assert info.value.best_residual == float(np.linalg.norm(res))
        assert info.value.best_residual < rnorm


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
        assert orbit.monodromy.shape == (6, 6)
        assert np.linalg.det(orbit.monodromy) == pytest.approx(1.0, abs=1e-6)
        assert len(orbit.multipliers()) == 6

    def test_solver_reports_failure(self, monkeypatch):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X_bad = model.pack_state([0.9, 0.1], [0.3, -0.4], 0.0, 0.9)
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.3, pert=forcing_pert(2), X_ref=X_bad)
        u = shooting.pack_unknowns(
            problem, np.tile(X_bad, (problem.m, 1)), 5.0, 0.0)
        monkeypatch.setattr(shooting, "MAX_OUTER", 2)
        with pytest.raises((shooting.ShootingError, flow.FlowError)):
            shooting.solve(problem, u)

    @pytest.mark.parametrize("theta", [0.05, 0.2])
    def test_solves_from_rotated_closure(self, theta):
        """A 3D start whose closure is off by R(theta) has no condensed
        direction below WEAK_CUTOFF; the first strong sweep ends with
        the seed's five, so solve takes its reduced steps and finds the
        period of the theta = 0 start."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(4)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS, pert=forcing_pert(3), X_ref=X0)
        u = seed_at_theta(problem, X0, theta)

        def weak_count(sv):
            return int(np.sum(sv <= shooting.WEAK_CUTOFF * sv[0]))

        res, jac = shooting.residual_and_jacobian(problem, u)
        assert weak_count(np.linalg.svd(shooting._condense(
            problem, res, jac)[1], compute_uv=False)) == 0
        assert weak_count(shooting._strong_sweep(problem, u, res, jac)
                          [-1][1]) == 5
        orbit = shooting.solve(problem, u)
        reference = shooting.solve(problem, seed_at_theta(problem, X0, 0.0))
        assert orbit.residual_norm < shooting.RESIDUAL_TOL
        assert abs(orbit.S - reference.S) < 1e-8


def full_strong_step(problem, u, res, jac):
    """The undamped step of a strong sweep from (res, jac) at u: the
    condensed Gauss-Newton step on the strong directions, expanded to
    every segment start."""
    cres, matrix = shooting._condense(problem, res, jac)
    U, sv, Vt = np.linalg.svd(matrix, full_matrices=False)
    keep = sv > shooting.WEAK_CUTOFF * sv[0]
    v = -Vt[keep].T @ ((U[:, keep].T @ cres) / sv[keep])
    return u + shooting._expand(problem, jac, res, v)[0]


class TestLookAhead:
    """Every line-search trial, full or halved, is one
    residual_and_jacobian call, whose Jacobian the next iteration reuses
    when the trial is accepted; plain residuals are the reduced step's
    batched probes alone."""

    @staticmethod
    def spied_solve(monkeypatch, worse_call=None):
        """One 2D k = 1 solve at EPS, logging every residual and
        residual_and_jacobian call as (name, unknowns, residual, J), J
        None for a plain residual.  The residual_and_jacobian call
        numbered ``worse_call`` (from 0) reports a residual made larger
        by 1 in every row."""
        problem, u = lookahead_problem()
        real_r, real_rj = shooting.residual, shooting.residual_and_jacobian
        log = []

        def spy_r(problem, unknowns):
            res = real_r(problem, unknowns)
            log.append(("residual", np.array(unknowns), res, None))
            return res

        def spy_rj(problem, unknowns):
            res, J = real_rj(problem, unknowns)
            if sum(entry[0] == "rj" for entry in log) == worse_call:
                res = res + 1.0
            log.append(("rj", np.array(unknowns), res, J))
            return res, J

        monkeypatch.setattr(shooting, "residual", spy_r)
        monkeypatch.setattr(shooting, "residual_and_jacobian", spy_rj)
        return shooting.solve(problem, u), log

    def test_accepted_full_step_needs_no_residual(self, monkeypatch):
        orbit, log = self.spied_solve(monkeypatch)
        assert orbit.residual_norm < shooting.RESIDUAL_TOL
        rj = [entry[1:] for entry in log if entry[0] == "rj"]
        problem = lookahead_problem()[0]
        full = [full_strong_step(problem, *entry) for entry in rj]
        single = [u for name, u, _, _ in log
                  if name == "residual" and u.ndim == 1]
        for point in full:
            assert not any(np.array_equal(point, u) for u in single)
        # some full strong steps were accepted with their Jacobian: the
        # residual_and_jacobian call after one is at its full step
        looked_ahead = sum(np.array_equal(f, u)
                           for f, (u, _, _) in zip(full, rj[1:]))
        assert looked_ahead >= 2
        assert len(single) < len(rj)
        # and no Jacobian is taken twice at one point, also where an
        # accepted reduced Newton step opens the next sweep
        assert not any(np.array_equal(a[0], b[0])
                       for a, b in zip(rj, rj[1:]))

    def test_rejected_full_step_backtracks_with_jacobians(self,
                                                          monkeypatch):
        """The last call of the unpatched solve is the full trial that
        converges; worsening it makes that sweep backtrack, every halved
        trial one residual_and_jacobian call, and the solve, identical
        up to there, ends on the same orbit."""
        reference, ref_log = self.spied_solve(monkeypatch)
        worse = sum(entry[0] == "rj" for entry in ref_log) - 1
        orbit, log = self.spied_solve(monkeypatch, worse_call=worse)
        at = [i for i, entry in enumerate(log) if entry[0] == "rj"]
        _, u0, res0, J0 = log[at[worse - 1]]
        full = full_strong_step(lookahead_problem()[0], u0, res0, J0)
        # the worsened call is the sweep's full trial, and is rejected
        assert at[worse] == at[worse - 1] + 1
        assert np.array_equal(log[at[worse]][1], full)
        rnorm = np.linalg.norm(res0)
        accepted = next(i for i in at[worse + 1:]
                        if np.linalg.norm(log[i][2]) < rnorm)
        trials = log[at[worse] + 1:accepted + 1]
        assert 1 <= len(trials) <= shooting.MAX_BACKTRACKS - 1
        assert all(name == "rj" for name, _, _, _ in trials)
        for j, (_, u, _, _) in enumerate(trials):
            assert np.allclose(u, u0 + 0.5 ** (j + 1) * (full - u0),
                               rtol=0.0, atol=1e-14)
        # the last trial is the first one accepted, and its point is
        # not integrated again
        assert all(np.linalg.norm(r) >= rnorm for _, _, r, _ in trials[:-1])
        assert not any(np.array_equal(u, trials[-1][1])
                       for _, u, _, _ in log[accepted + 1:])
        assert orbit.residual_norm < shooting.RESIDUAL_TOL
        assert abs(orbit.S - reference.S) < 1e-10

    def test_rejected_search_makes_exactly_its_trials(self, monkeypatch):
        """When every trial is rejected the search gives up after
        MAX_BACKTRACKS residual_and_jacobian calls, at alpha = 1, 1/2,
        1/4, ..., and calls no plain residual."""
        calls = []

        def fake_rj(problem, u):
            calls.append(u)
            return np.zeros(1), np.zeros((1, 2))

        def no_residual(problem, u):
            raise AssertionError("a line-search trial called residual")

        monkeypatch.setattr(shooting, "residual_and_jacobian", fake_rj)
        monkeypatch.setattr(shooting, "residual", no_residual)
        step = np.array([1.0, -2.0])
        assert shooting._line_search(None, np.zeros(2), step,
                                     lambda res: False) is None
        assert len(calls) == shooting.MAX_BACKTRACKS
        for j, u in enumerate(calls):
            assert np.array_equal(u, 0.5 ** j * step)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_calls_are_probe_batches(self, monkeypatch, dim):
        """Over a k = 1 continuation (whose reduced steps halve some
        trials) every plain residual call is one batch of the 2q central-
        difference probes u +- FD_STEP v of a reduced step, q its weak
        directions (the columns of its lstsq)."""
        log, real_r, real_lstsq = [], shooting.residual, np.linalg.lstsq

        def spy_r(problem, unknowns):
            log.append(("residual", np.array(unknowns)))
            return real_r(problem, unknowns)

        def spy_lstsq(a, *args, **kwargs):
            log.append(("lstsq", np.shape(a)[1]))
            return real_lstsq(a, *args, **kwargs)

        monkeypatch.setattr(shooting, "residual", spy_r)
        monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(dim), fixture_seed(spec),
            [EPS / 4, EPS / 2, EPS])
        assert diags == [] and len(family) == 3
        names = [name for name, _ in log]
        assert len(log) >= 2 and names == ["residual", "lstsq"] * (
            len(log) // 2)
        for (_, probes), (_, q) in zip(log[::2], log[1::2]):
            assert probes.shape[0] == 2 * q
            centre = 0.5 * (probes[:q] + probes[q:])
            assert np.allclose(centre, centre[0], rtol=0.0, atol=1e-14)


class TestComposedMonodromy:
    """A solved orbit's monodromy is M_{m-1} ... M_0, the segment
    matrices of its converged shooting Jacobian."""

    @pytest.mark.parametrize("per_k", [1, 8], ids=["m1k", "m8k"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_unperturbed_matches_closed_variation(self, monkeypatch, dim,
                                                  k, per_k):
        """At m = k and 8k the error test rejects the whole-segment first
        step of every integration, which is retried shorter: the
        fallback still composes the closed-form variation."""
        monkeypatch.setattr(shooting, "SEGMENTS_PER_K", per_k)
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(10 * dim + k)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, dim),
            X_ref=X0)
        assert problem.m == per_k * k
        orbit = shooting.solve(problem,
                               shooting.seed_unknowns(problem, X0))
        got = orbit.monodromy @ manifolds.variation_start(spec, orbit.X0)
        expected = manifolds.closed_form_variation(spec, orbit.X0, orbit.S)
        scale = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(got - expected) < 1e-6 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_unperturbed_matches_closed_form_jacobian(self, dim, k):
        """At eps = 0 and the default m, every column of a solved orbit's
        monodromy matches closed_form_jacobian(X0, S) within 1e-10
        relative, on 5 seeds."""
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        rng = np.random.default_rng(100 + 10 * dim + k)
        for _ in range(5):
            X0 = manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng))
            problem = shooting.ShootingProblem(
                spec=spec, eps=0.0, pert=model.zero_perturbation(T, dim),
                X_ref=X0)
            orbit = shooting.solve(problem,
                                   shooting.seed_unknowns(problem, X0))
            expected = manifolds.closed_form_jacobian(orbit.X0, orbit.S)
            gap = np.linalg.norm(orbit.monodromy - expected, axis=0)
            assert np.all(gap < 1e-10 * np.linalg.norm(expected, axis=0))

    def test_perturbed_matches_integrated_monodromy(self, family2d,
                                                    orbit3d_eps):
        for orbit in (family2d[1][-1], orbit3d_eps):
            assert orbit.eps == EPS
            pert = forcing_pert(orbit.dim)
            _, integrated = flow.monodromy(
                lambda X: model.reg_field_jacobian(X, orbit.eps, pert),
                orbit.X0, orbit.S)
            M = orbit.monodromy
            # the gap is the converged residual carried through the product
            assert np.max(np.abs(M - integrated)) < 1e-7
            F = model.reg_field(orbit.X0, orbit.eps, pert)
            R = (np.eye(F.size) if orbit.dim == 2
                 else model.group_rotation_matrix(orbit.theta))
            assert np.max(np.abs(M @ F - R @ F)) < 1e-8


class TestWorkCounts:
    """``solve`` integrates no monodromy: every variational integration
    is a ``residual_and_jacobian`` call."""

    @staticmethod
    def spy(monkeypatch):
        """Logs "rj" unknowns and variational integrations; a call of
        flow.monodromy fails the test."""
        log = []
        real_rj = shooting.residual_and_jacobian
        real_var = flow.integrate_with_variational

        def rj(problem, unknowns):
            log.append(("rj", np.array(unknowns)))
            return real_rj(problem, unknowns)

        def variational(*args, **kwargs):
            log.append(("variational", None))
            return real_var(*args, **kwargs)

        def no_monodromy(*args, **kwargs):
            raise AssertionError("flow.monodromy called by solve")

        monkeypatch.setattr(shooting, "residual_and_jacobian", rj)
        monkeypatch.setattr(flow, "integrate_with_variational", variational)
        monkeypatch.setattr(flow, "monodromy", no_monodromy)
        return log

    @staticmethod
    def count(log, name):
        return sum(entry[0] == name for entry in log)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_field_kernel_work(self, monkeypatch, dim):
        """Per residual_and_jacobian call, reg_field_jacobian runs once
        per variational field evaluation, and reg_field once, for the
        field at the segment ends; per residual call, reg_field runs
        once per field evaluation.  The phase rows are the problem's,
        evaluated when it is built.  Every call of a field or energy
        function evaluates the perturbation exactly once."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(2)))
        pert = forcing_pert(dim)
        problem = shooting.ShootingProblem(spec=spec, eps=EPS, pert=pert,
                                           X_ref=X0)
        u = shooting.seed_unknowns(problem, X0)

        evaluations, calls, nfev = [], {}, []
        real_evaluate = pert.evaluate

        def evaluate(*args):
            evaluations.append(None)
            return real_evaluate(*args)

        def spy(name):
            real = getattr(model, name)

            def wrapper(*args):
                before = len(evaluations)
                out = real(*args)
                calls.setdefault(name, []).append(len(evaluations) - before)
                return out

            monkeypatch.setattr(model, name, wrapper)

        real_plain, real_var = flow.integrate, flow.integrate_with_variational

        def plain(*args, **kwargs):
            traj = real_plain(*args, **kwargs)
            nfev.append(traj.nfev)
            return traj

        def variational(*args, **kwargs):
            traj, M = real_var(*args, **kwargs)
            nfev.append(traj.nfev)
            return traj, M

        monkeypatch.setattr(pert, "evaluate", evaluate)
        for name in ("reg_field", "reg_field_jacobian", "reg_energy",
                     "reg_energy_gradient"):
            spy(name)
        monkeypatch.setattr(flow, "integrate", plain)
        monkeypatch.setattr(flow, "integrate_with_variational", variational)

        def check(call, field_calls, jacobian_calls):
            for log in (evaluations, calls, nfev):
                log.clear()
            call(problem, u)
            assert len(nfev) == 1
            assert len(calls.get("reg_field", [])) == field_calls(nfev[0])
            assert len(calls.get("reg_field_jacobian", [])) == \
                jacobian_calls(nfev[0])
            assert all(n == 1 for runs in calls.values() for n in runs)
            assert len(evaluations) == sum(map(len, calls.values()))

        check(shooting.residual_and_jacobian, lambda n: 1, lambda n: n)
        check(shooting.residual, lambda n: n, lambda n: 0)

    def test_one_variational_integration_per_jacobian(self, monkeypatch):
        problem, u = lookahead_problem()
        log = self.spy(monkeypatch)
        orbit = shooting.solve(problem, u)
        assert orbit.residual_norm < shooting.RESIDUAL_TOL
        assert self.count(log, "rj") >= 1
        assert self.count(log, "variational") == self.count(log, "rj")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_svd_is_condensed(self, monkeypatch, dim):
        """Every SVD of a solve is of the condensed Jacobian, 8 x 7 in 2D
        and 14 x 12 in 3D, whatever m is."""
        spec = manifolds.ManifoldSpec(k=2, T=T, dim=dim)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(3)))
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS / 4, pert=forcing_pert(dim), X_ref=X0)
        shapes, real_svd = [], np.linalg.svd

        def svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        orbit = shooting.solve(problem, shooting.seed_unknowns(problem, X0))
        assert orbit.residual_norm < shooting.RESIDUAL_TOL
        assert shapes and set(shapes) == {(8, 7) if dim == 2 else (14, 12)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_step_per_segment_stack(self, monkeypatch, dim, k):
        """At m = 48k every segment-stack integration of a continuation
        takes one accepted step and no rejected one: 12 field
        evaluations (the first and 11 stages), 16 with dense output,
        whose interpolation stages follow the field at the end point."""
        runs, real_plain = [], flow.integrate
        real_var = flow.integrate_with_variational

        def plain(fun, X0, s_end, dense=True, first_step=None):
            traj = real_plain(fun, X0, s_end, dense, first_step)
            runs.append((dense, traj.nfev))
            return traj

        def variational(fun, X0, s_end, dense=True, first_step=None):
            traj, M = real_var(fun, X0, s_end, dense, first_step)
            runs.append((dense, traj.nfev))
            return traj, M

        monkeypatch.setattr(flow, "integrate", plain)
        monkeypatch.setattr(flow, "integrate_with_variational", variational)
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(dim), fixture_seed(spec),
            [EPS / 4, EPS / 2, EPS])
        assert diags == [] and len(family) == 3
        assert len(runs) > 3 and sum(dense for dense, _ in runs) == 3
        assert {(dense, nfev) for dense, nfev in runs} <= {(False, 12),
                                                           (True, 16)}

    @pytest.mark.parametrize("held", [True, False],
                             ids=["full_trial", "halved_trial"])
    def test_max_outer_exit(self, monkeypatch, held):
        """The loop ends on an accepted reduced step at the converged
        point, which hands its Jacobian to the orbit: a full trial was
        evaluated with it, and so was a halved trial (the search from
        u*/2 along u*, whose full trial 3u*/2 is rejected).  The orbit
        takes no more."""
        problem, u0 = lookahead_problem()
        log = self.spy(monkeypatch)
        reference = shooting.solve(problem, u0)
        u_star = [u for name, u in log if name == "rj"][-1]
        assert np.array_equal(u_star[:problem.D], reference.X0)
        res_star, J_star = shooting.residual_and_jacobian(problem, u_star)
        real_ls, real_sweep = shooting._line_search, shooting._strong_sweep
        sweeping = []

        def sweep(*args):
            sweeping.append(True)
            try:
                return real_sweep(*args)
            finally:
                sweeping.pop()

        def reduced_converges(problem, u, step, better):
            if sweeping:
                return real_ls(problem, u, step, better)
            log.append(("reduced", None))
            if held:
                return u_star, res_star, J_star
            return real_ls(problem, 0.5 * u_star, u_star,
                           lambda rt: np.linalg.norm(rt)
                           < shooting.RESIDUAL_TOL)

        monkeypatch.setattr(shooting, "_strong_sweep", sweep)
        monkeypatch.setattr(shooting, "_line_search", reduced_converges)
        monkeypatch.setattr(shooting, "MAX_OUTER", 1)
        log.clear()
        orbit = shooting.solve(problem, u0)
        names = [name for name, _ in log]
        assert names.count("reduced") == 1
        after = [u for name, u in log[names.index("reduced"):]
                 if name == "rj"]
        assert len(after) == (0 if held else 2)
        if not held:
            assert np.array_equal(after[0], 0.5 * u_star + u_star)
            assert np.array_equal(after[1], u_star)
        assert self.count(log, "variational") == self.count(log, "rj")
        assert np.array_equal(orbit.X0, reference.X0)
        assert orbit.S == reference.S
        assert np.array_equal(orbit.monodromy, reference.monodromy)


class TestCarriedStep:
    """A continuation carries each eps step's converged unknowns to the
    next; every integration, continued or direct, starts with the whole
    segment as its first trial step."""

    @staticmethod
    def spy(monkeypatch):
        """Logs (stacked, s_end, first_step) of every plain and
        variational integration."""
        log = []
        real_plain, real_var = flow.integrate, flow.integrate_with_variational

        def plain(fun, X0, s_end, dense=True, first_step=None):
            log.append((np.ndim(X0) == 2, s_end, first_step))
            return real_plain(fun, X0, s_end, dense, first_step)

        def variational(fun, X0, s_end, dense=True, first_step=None):
            log.append((np.ndim(X0) == 2, s_end, first_step))
            return real_var(fun, X0, s_end, dense, first_step)

        monkeypatch.setattr(flow, "integrate", plain)
        monkeypatch.setattr(flow, "integrate_with_variational", variational)
        return log

    @staticmethod
    def continuation(seed=5, targets=(EPS / 4, EPS / 2)):
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X_seed = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(seed)))
        family, diags = shooting.continue_in_epsilon(
            spec, forcing_pert(2), X_seed, list(targets))
        assert diags == []
        return family

    def test_every_integration_starts_with_the_whole_segment(
            self, monkeypatch):
        """Every integration of a continuation and of a direct solve is
        a stack over sigma in [0, 1] whose first trial step is the whole
        interval, 1.0."""
        log = self.spy(monkeypatch)
        self.continuation()
        continued = len(log)
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X0 = manifolds.seed_state(spec, manifolds.circular_seed_params(spec))
        problem = shooting.ShootingProblem(
            spec=spec, eps=0.0, pert=model.zero_perturbation(T, 2), X_ref=X0)
        shooting.solve(problem, shooting.seed_unknowns(problem, X0))
        assert continued > 10 and len(log) > continued
        assert set(log) == {(True, 1.0, 1.0)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direct_solve_matches_continuation(self, dim, family2d, orbit3d):
        """A direct solve of a continuation's first problem, with the
        same anchor, eps and seed unknowns, returns the continuation's
        first orbit bit for bit."""
        continued = family2d[1][0] if dim == 2 else orbit3d[1]
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        X_seed = fixture_seed(spec)
        problem = shooting.ShootingProblem(
            spec=spec, eps=EPS / 4, pert=forcing_pert(dim), X_ref=X_seed)
        direct = shooting.solve(problem,
                                shooting.seed_unknowns(problem, X_seed))
        assert direct.eps == continued.eps
        assert np.array_equal(direct.unknowns, continued.unknowns)
        assert direct.S == continued.S
        assert direct.energy_band == continued.energy_band
        assert np.array_equal(direct.monodromy, continued.monodromy)

    def test_later_step_starts_at_converged_unknowns(self, monkeypatch):
        """The first solve starts at the closed-form seed, and each later
        eps step's solve exactly at the previous orbit's unknowns."""
        real, starts = shooting.solve, []

        def spy(problem, unknowns0):
            starts.append(np.array(unknowns0))
            return real(problem, unknowns0)

        monkeypatch.setattr(shooting, "solve", spy)
        family = self.continuation(targets=(EPS / 4, EPS / 2, EPS))
        assert len(starts) == len(family) == 3
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        X_seed = manifolds.seed_state(spec, manifolds.random_seed_params(
            spec, np.random.default_rng(5)))
        problem = shooting.ShootingProblem(spec=spec, eps=0.0,
                                           pert=forcing_pert(2),
                                           X_ref=X_seed)
        assert np.array_equal(starts[0],
                              shooting.seed_unknowns(problem, X_seed))
        for orbit, start in zip(family, starts[1:]):
            assert np.array_equal(start, orbit.unknowns)
            assert np.array_equal(orbit.unknowns[:orbit.X0.size], orbit.X0)

    def test_continuation_is_repeatable(self):
        """No step outlives a call: two calls give the same orbits bit
        for bit, also with a continuation from another seed between
        them."""
        first = self.continuation()
        self.continuation(seed=6, targets=(EPS / 4,))
        second = self.continuation()
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a.X0, b.X0)
            assert a.S == b.S
            assert a.energy_band == b.energy_band
            assert np.array_equal(a.monodromy, b.monodromy)


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
        """A converged planar orbit, embedded segment by segment in the
        default Levi-Civita plane, zeroes the spatial residual with
        theta = 0."""
        _, family = family2d
        orbit = family[-1]
        plane = np.column_stack([[1.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.0]])
        spec2 = manifolds.ManifoldSpec(k=1, T=T, dim=2)
        planar = shooting.ShootingProblem(
            spec=spec2, eps=orbit.eps, pert=forcing_pert(2), X_ref=orbit.X0)
        states, S, _ = shooting.unpack_unknowns(planar, orbit.unknowns)
        X3 = [model.pack_state(plane @ z, plane @ w, t, tau)
              for z, w, t, tau in map(model.unpack_state, states)]
        spec3 = manifolds.ManifoldSpec(k=1, T=T, dim=3)
        problem = shooting.ShootingProblem(
            spec=spec3, eps=orbit.eps, pert=forcing_pert(3), X_ref=X3[0])
        u = shooting.pack_unknowns(problem, X3, S, 0.0)
        res = shooting.residual(problem, u)
        assert np.linalg.norm(res) < 1e-7


class TestEnergyBand:
    def test_matches_per_point_loop(self):
        """A trajectory over the whole orbit is the stack of m = 1."""
        for dim in (2, 3):
            spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
            c = manifolds.constants(spec)
            pert = forcing_pert(dim)
            X0 = manifolds.seed_state(spec, manifolds.SeedParams(
                psi=0.9, phi1=0.4, phi2=1.3, t0=0.2))
            traj = flow.integrate(lambda X: model.reg_field(X, EPS, pert),
                                  X0[None], c.S)
            energies = []
            for s in np.linspace(traj.s0, traj.s_end, 400):
                z, _, t, tau = model.unpack_state(traj.eval(s)[0])
                energies.append(-tau + EPS * pert.evaluate(
                    t, model.position(z))[0])
            band = shooting.energy_band(traj, EPS, pert)
            assert np.allclose(band, (min(energies), max(energies)),
                               rtol=1e-14, atol=1e-15)


    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [8, 16])
    def test_stack_reads_each_point_on_its_segment(self, dim, m):
        """The band of an m-segment stack equals, bit for bit, the
        evaluation of every segment at every point keeping the one each
        point falls on."""
        spec = manifolds.ManifoldSpec(k=1, T=T, dim=dim)
        c = manifolds.constants(spec)
        pert = forcing_pert(dim)
        X0 = manifolds.seed_state(spec, manifolds.SeedParams(
            psi=0.9, phi1=0.4, phi2=1.3, t0=0.2))
        starts = manifolds.closed_form_flow(X0, np.arange(m) * c.S / m)
        h = c.S / m
        traj = flow.integrate(lambda Y: h * model.reg_field(Y, EPS, pert),
                              starts, 1.0)
        n = shooting.BAND_SAMPLES
        x = np.linspace(0.0, m, n)
        seg = np.minimum(np.floor(x).astype(int), m - 1)
        sigma = traj.s0 + (x - seg) * (traj.s_end - traj.s0)
        Y = traj.eval(sigma)[np.arange(n), seg]
        E = model.state_energy(Y, EPS, pert)
        assert shooting.energy_band(traj, EPS, pert) == \
            (float(np.min(E)), float(np.max(E)))
        assert np.array_equal(traj.eval(sigma, rows=seg), Y)

    def test_segment_stack_matches_single_trajectory(self, family2d,
                                                     orbit3d_eps):
        """A solved orbit's band, read off its segment stack, against
        one trajectory over the whole period at the same 400 points."""
        for orbit in (*family2d[1], orbit3d_eps):
            pert = forcing_pert(orbit.dim)
            traj = flow.integrate(
                lambda X: model.reg_field(X, orbit.eps, pert),
                orbit.X0[None], orbit.S)
            band = shooting.energy_band(traj, orbit.eps, pert)
            assert np.max(np.abs(np.subtract(orbit.energy_band,
                                             band))) < 1e-9


class TestDistinctness:
    def _orbit(self, band):
        return shooting.PeriodicOrbit(
            X0=np.zeros(6), S=1.0, eps=0.0, eta=1, residual_norm=0.0,
            energy_band=band, monodromy=None, k=1, dim=2)

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
        data = json.loads(path.read_text())
        assert data["meta"]["note"] == "test"
        assert len(data["orbits"]) == len(family)
        rec = data["orbits"][-1]
        assert rec["eps"] == family[-1].eps
        assert np.allclose(rec["X0"], family[-1].X0)
        assert rec["eta"] == 1


def unperturbed_orbit(spec, X0):
    """The eps = 0 orbit through X0 on spec's M_k, without unknowns."""
    c = manifolds.constants(spec)
    return shooting.PeriodicOrbit(
        X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
        energy_band=(-c.tau, -c.tau), monodromy=None, k=spec.k,
        dim=spec.dim)


class TestOrbitTrajectory:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["rectilinear", "random"])
    def test_closed_form_oracle(self, dim, k, kind):
        """At eps = 0 an orbit without unknowns takes the closed-form
        starts, and its trajectory is the closed-form flow within 1e-12
        on 10,001 points: each segment's error stays its own."""
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        params = (manifolds.rectilinear_seed_params(spec)
                  if kind == "rectilinear" else
                  manifolds.random_seed_params(
                      spec, np.random.default_rng(70 + k)))
        orbit = unperturbed_orbit(spec, manifolds.seed_state(spec, params))
        traj = shooting.orbit_trajectory(orbit, model.zero_perturbation(T,
                                                                        dim))
        assert traj.s0 == 0.0 and traj.s_end == orbit.S
        s = np.linspace(0.0, orbit.S, 10001)
        ref = manifolds.closed_form_flow(orbit.X0, s)
        assert np.max(np.abs(traj.eval(s) - ref)) < 1e-12

    def test_solved_orbit_passes_through_its_starts(self, family2d,
                                                    orbit3d_eps):
        """On a solved orbit at eps = 1e-3 the nodes are the segment
        starts of the unknowns, bit for bit, the dense output just left
        of every node is the node's state, and the trajectory stays
        within 1e-9 of a single-state integration of X0 over [0, S]."""
        for orbit in (family2d[1][-1], orbit3d_eps):
            assert orbit.eps == EPS
            pert = forcing_pert(orbit.dim)
            traj = shooting.orbit_trajectory(orbit, pert)
            m, D = shooting.SEGMENTS_PER_K * orbit.k, traj.dim
            assert traj.n_steps == m
            assert np.array_equal(traj.states[:m].ravel(),
                                  orbit.unknowns[: m * D])
            assert np.array_equal(traj.s[:m],
                                  np.arange(m) * orbit.S / m)
            scale = np.maximum(1.0, np.abs(traj.states[1:]))
            assert np.all(np.abs(traj.eval(traj.s[1:]) - traj.states[1:])
                          <= 4e-16 * scale)
            left = np.nextafter(traj.s[1:], -np.inf)
            assert np.max(np.abs(traj.eval(left) - traj.states[1:])) < 1e-12
            ref = flow.integrate(
                lambda X: model.reg_field(X, orbit.eps, pert),
                orbit.X0, orbit.S)
            s = np.linspace(0.0, orbit.S, 10001)
            assert np.max(np.abs(traj.eval(s) - ref.eval(s))) < 1e-9

    def test_one_stacked_step(self, family2d, monkeypatch):
        """The trajectory is one integration call of one DOP853 step on
        the 48k rows: 12 stages and the 4 of the dense output."""
        calls = []
        real = flow.integrate

        def spy(field, X0, s_end, **kwargs):
            traj = real(field, X0, s_end, **kwargs)
            calls.append((np.shape(X0), traj.nfev))
            return traj

        monkeypatch.setattr(flow, "integrate", spy)
        orbit = family2d[1][-1]
        traj = shooting.orbit_trajectory(orbit, forcing_pert(2))
        m = shooting.SEGMENTS_PER_K * orbit.k
        assert calls == [((m, 6), 16)]
        assert traj.nfev == 16

    def test_chain_reindexes_a_stack_of_two_steps_per_row(self):
        """A hand-made stack of m = 3 rows with two steps each chains
        into one row of 6 steps: step i of row j is step 2j + i, at
        s = (j + sigma_i) S / m, with its coefficients; F_0 of a row's
        last step takes up the matching defect, which moves the dense
        output there by x times the defect, and nowhere else."""
        rng = np.random.default_rng(3)
        m, D, S = 3, 4, 2.5
        states = rng.standard_normal((3, m, D))
        sol = rng.standard_normal((7, m, D, 2))
        sol[0] = np.moveaxis(np.diff(states, axis=0), 0, -1)
        stack = flow.Trajectory(s=np.array([0.0, 0.375, 1.0]),
                                states=states, sol=sol, nfev=0, dim=D)
        traj = shooting._chain(stack, S)
        assert traj.n_steps == 2 * m
        assert np.array_equal(
            traj.s, [0.0, 0.375 * S / m, S / m, 1.375 * S / m,
                     2 * S / m, 2.375 * S / m, S])
        assert np.array_equal(traj.states[:-1],
                              states[:2].swapaxes(0, 1).reshape(-1, D))
        assert np.array_equal(traj.states[-1], states[-1, -1])
        for j in range(m):
            for i in range(2):
                assert np.array_equal(traj.sol[1:, :, 2 * j + i],
                                      sol[1:, j, :, i])
        sigma = np.array([0.1, 0.3, 0.5, 0.8, 0.95])
        x = np.where(sigma > 0.375, (sigma - 0.375) / 0.625, 0.0)
        for j in range(m):
            fold = (states[0, j + 1] - states[-1, j] if j < m - 1
                    else np.zeros(D))
            want = stack.eval(sigma, rows=np.full(sigma.shape, j))
            got = traj.eval((j + sigma) * S / m)
            assert np.allclose(got, want + x[:, None] * fold,
                               rtol=0.0, atol=1e-12)
            if j < m - 1:
                assert np.allclose(traj.eval((j + 1) * S / m),
                                   states[0, j + 1], rtol=0.0, atol=1e-14)

    def test_perturbed_orbit_needs_its_unknowns(self, family2d):
        orbit = dataclasses.replace(family2d[1][-1], unknowns=None)
        with pytest.raises(ValueError, match="needs its shooting unknowns"):
            shooting.orbit_trajectory(orbit, forcing_pert(2))


def test_anchor_of_the_wrong_dimension():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=3)
    with pytest.raises(ValueError, match="anchor state has the wrong "
                                         "dimension"):
        shooting.ShootingProblem(spec=spec, eps=EPS, pert=forcing_pert(3),
                                 X_ref=np.zeros(6))
